// Package runtime executes a routed entanglement plan as a distributed
// protocol, following the paper's §II-B process: quantum users send
// entanglement requests to a central controller; the controller computes
// the routes offline with any MUERP solver and disseminates the plan over
// classical channels; then, in synchronized rounds, links attempt
// entanglement, switches perform heralded BSM swaps, and the controller
// aggregates per-round success of the whole entanglement tree.
//
// Every node (controller, users, switches) runs as its own goroutine and
// communicates exclusively through a transport.Network (in practice the
// in-memory plane), never through shared state.
package runtime

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/muerp/quantumnet/internal/graph"
)

// Message kinds of the runtime protocol, in the order they occur.
const (
	// KindRequest is sent by each user to the controller to ask for
	// entanglement (payload: RequestBody).
	KindRequest = "request"
	// KindPlan carries the routed plan from the controller to every node
	// (payload: PlanBody).
	KindPlan = "plan"
	// KindRoundStart opens one synchronized entanglement round (payload:
	// RoundBody).
	KindRoundStart = "round_start"
	// KindLinkReport carries one quantum link's heralded outcome from the
	// link's upstream owner to the controller (payload: LinkReportBody).
	KindLinkReport = "link_report"
	// KindSwapRequest asks a switch to perform one BSM for a channel whose
	// two adjacent links both came up (payload: SwapBody).
	KindSwapRequest = "swap_request"
	// KindSwapReport carries the BSM outcome back (payload: SwapBody).
	KindSwapReport = "swap_report"
	// KindRoundResult announces a round's end-to-end outcome to the users
	// (payload: RoundResultBody).
	KindRoundResult = "round_result"
	// KindStop shuts a node down (no payload).
	KindStop = "stop"
)

// RequestBody is a user's entanglement request.
type RequestBody struct {
	User int64
}

// ChannelPlan describes one quantum channel of the routed tree in wire
// form: the node path and the per-link fiber lengths (from which each node
// derives its link success probabilities locally).
type ChannelPlan struct {
	Index    int
	Path     []int64
	LinkLens []float64
}

// PlanBody is the full routing plan the controller disseminates. Every
// node receives the same plan and derives its own duties: a node owns the
// link i of a channel when it is the path's i-th vertex, and performs a
// swap for every interior position it occupies.
type PlanBody struct {
	Channels []ChannelPlan
	Alpha    float64
	SwapProb float64
	Rounds   int
}

// RoundBody opens a round.
type RoundBody struct {
	Round int
}

// LinkReportBody reports one link attempt.
type LinkReportBody struct {
	Round   int
	Channel int
	Link    int
	OK      bool
}

// SwapBody requests or reports one BSM at an interior switch position.
type SwapBody struct {
	Round   int
	Channel int
	Pos     int
	OK      bool // meaningful on report only
}

// RoundResultBody announces one round's end-to-end outcome.
type RoundResultBody struct {
	Round int
	OK    bool
}

// nodeName maps a graph node to its endpoint name on the message plane.
func nodeName(id graph.NodeID) string { return fmt.Sprintf("n%d", id) }

// ControllerName is the controller's endpoint name.
const ControllerName = "ctrl"

// encodeBody gob-encodes a payload.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("runtime: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodeBody gob-decodes a payload into v.
func decodeBody(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("runtime: decode %T: %w", v, err)
	}
	return nil
}
