package runtime

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/transport"
)

// protoFixture wires a controller endpoint and one crafted peer onto an
// in-memory plane.
type protoFixture struct {
	ctrl *controller
	peer transport.Conn
	ctx  context.Context
}

func newProtoFixture(t *testing.T) *protoFixture {
	t.Helper()
	g := testNet(t)
	net := transport.NewInMemory()
	t.Cleanup(func() { _ = net.Close() })
	ctrlConn, err := net.Join(ControllerName)
	if err != nil {
		t.Fatal(err)
	}
	// The crafted peer plays node 0 (a user in testNet).
	peer, err := net.Join(nodeName(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return &protoFixture{
		ctrl: &controller{
			conn: ctrlConn,
			g:    g,
			cfg: Config{
				Solver: core.SolverFunc{ID: "alg3", Fn: core.SolveConflictFreeContext},
				Params: quantum.DefaultParams(),
				Rounds: 1,
				Seed:   1,
			},
		},
		peer: peer,
		ctx:  ctx,
	}
}

func (f *protoFixture) send(t *testing.T, kind string, body any) {
	t.Helper()
	payload, err := encodeBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.peer.Send(ControllerName, kind, payload); err != nil {
		t.Fatal(err)
	}
}

func TestCollectRequestsRejectsWrongKind(t *testing.T) {
	f := newProtoFixture(t)
	f.send(t, KindLinkReport, LinkReportBody{})
	_, err := f.ctrl.collectRequests(f.ctx)
	if err == nil || !strings.Contains(err.Error(), "expected request") {
		t.Fatalf("error = %v, want kind complaint", err)
	}
}

func TestCollectRequestsRejectsNonUser(t *testing.T) {
	f := newProtoFixture(t)
	f.send(t, KindRequest, RequestBody{User: 3}) // node 3 is a switch
	_, err := f.ctrl.collectRequests(f.ctx)
	if err == nil || !strings.Contains(err.Error(), "non-user") {
		t.Fatalf("error = %v, want non-user complaint", err)
	}
}

func TestCollectRequestsRejectsUnknownNode(t *testing.T) {
	f := newProtoFixture(t)
	f.send(t, KindRequest, RequestBody{User: 999})
	if _, err := f.ctrl.collectRequests(f.ctx); err == nil {
		t.Fatal("unknown node accepted")
	}
}

// planFixture prepares a small plan for link/swap collection tests.
func planFixture() PlanBody {
	return PlanBody{
		Channels: []ChannelPlan{{Index: 0, Path: []int64{0, 3, 1}, LinkLens: []float64{100, 100}}},
		Alpha:    1e-4,
		SwapProb: 0.9,
		Rounds:   1,
	}
}

func TestCollectLinkReportsRejectsWrongRound(t *testing.T) {
	f := newProtoFixture(t)
	f.send(t, KindLinkReport, LinkReportBody{Round: 7, Channel: 0, Link: 0, OK: true})
	_, err := f.ctrl.collectLinkReports(f.ctx, planFixture(), 2, 1)
	if err == nil || !strings.Contains(err.Error(), "round") {
		t.Fatalf("error = %v, want round complaint", err)
	}
}

func TestCollectLinkReportsRejectsDuplicate(t *testing.T) {
	f := newProtoFixture(t)
	f.send(t, KindLinkReport, LinkReportBody{Round: 1, Channel: 0, Link: 0, OK: true})
	f.send(t, KindLinkReport, LinkReportBody{Round: 1, Channel: 0, Link: 0, OK: false})
	_, err := f.ctrl.collectLinkReports(f.ctx, planFixture(), 2, 1)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("error = %v, want duplicate complaint", err)
	}
}

func TestCollectLinkReportsRejectsOutOfBounds(t *testing.T) {
	f := newProtoFixture(t)
	f.send(t, KindLinkReport, LinkReportBody{Round: 1, Channel: 5, Link: 0, OK: true})
	_, err := f.ctrl.collectLinkReports(f.ctx, planFixture(), 2, 1)
	if err == nil || !strings.Contains(err.Error(), "bounds") {
		t.Fatalf("error = %v, want bounds complaint", err)
	}
}

func TestCollectLinkReportsCompletes(t *testing.T) {
	f := newProtoFixture(t)
	f.send(t, KindLinkReport, LinkReportBody{Round: 1, Channel: 0, Link: 0, OK: true})
	f.send(t, KindLinkReport, LinkReportBody{Round: 1, Channel: 0, Link: 1, OK: false})
	linkOK, err := f.ctrl.collectLinkReports(f.ctx, planFixture(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !linkOK[0][0] || linkOK[0][1] {
		t.Fatalf("linkOK = %v, want [true false]", linkOK[0])
	}
}

func TestResolveSwapsSkipsDarkChannels(t *testing.T) {
	f := newProtoFixture(t)
	// Link 1 failed: no swap request must be sent, channel fails outright.
	linkOK := [][]bool{{true, false}}
	chanOK, attempts, err := f.ctrl.resolveSwaps(f.ctx, planFixture(), linkOK, 1)
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 0 {
		t.Fatalf("%d swap attempts on a dark channel, want 0", attempts)
	}
	if chanOK[0] {
		t.Fatal("dark channel reported successful")
	}
}

func TestResolveSwapsRejectsUnsolicited(t *testing.T) {
	f := newProtoFixture(t)
	// Prime an unsolicited swap report; with a dark channel the controller
	// expects none, so the very next Recv — if any — would be unsolicited.
	// Force the expectation path with all links up but feed a mismatched
	// position.
	// Peer must answer the controller's swap request with a wrong position.
	go func() {
		msg, err := f.peer.Recv(f.ctx)
		if err != nil {
			return
		}
		var req SwapBody
		if decodeBody(msg.Payload, &req) != nil {
			return
		}
		req.Pos = 99
		payload, _ := encodeBody(req)
		_ = f.peer.Send(ControllerName, KindSwapReport, payload)
	}()
	// The plan's only switch position is node 3 — rewire the plan so the
	// swap request goes to our crafted peer (node 0).
	plan := PlanBody{
		Channels: []ChannelPlan{{Index: 0, Path: []int64{1, 0, 2}, LinkLens: []float64{100, 100}}},
		Alpha:    1e-4, SwapProb: 0.9, Rounds: 1,
	}
	linkOK := [][]bool{{true, true}}
	_, _, err := f.ctrl.resolveSwaps(f.ctx, plan, linkOK, 1)
	if err == nil || !strings.Contains(err.Error(), "unsolicited") {
		t.Fatalf("error = %v, want unsolicited complaint", err)
	}
}
