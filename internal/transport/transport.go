// Package transport provides the classical message plane for the
// distributed entanglement runtime (internal/runtime): named endpoints
// exchanging small control messages. InMemory, the one implementation,
// runs every endpoint in one process on per-endpoint channels.
package transport

import (
	"context"
	"errors"
	"fmt"
)

// Message is one classical control message between endpoints. Payload holds
// a gob-encoded body whose schema is implied by Kind; the transport treats
// it as opaque bytes.
type Message struct {
	From    string
	To      string
	Kind    string
	Payload []byte
}

// Conn is one endpoint's connection to the message plane.
type Conn interface {
	// Name returns the endpoint name this connection was joined as.
	Name() string
	// Send delivers a message to the named endpoint. The message's From
	// field is stamped with this connection's name.
	Send(to, kind string, payload []byte) error
	// Recv blocks until a message arrives, the context is canceled, or the
	// connection closes (io.EOF-like ErrClosed).
	Recv(ctx context.Context) (Message, error)
	// Close detaches the endpoint. Further Sends to it fail.
	Close() error
}

// Network is a message plane endpoints can join by name.
type Network interface {
	// Join registers a named endpoint and returns its connection. Names
	// must be unique per network.
	Join(name string) (Conn, error)
	// Close tears down the network and every joined connection.
	Close() error
}

// Transport errors.
var (
	ErrClosed       = errors.New("transport: closed")
	ErrUnknownPeer  = errors.New("transport: unknown peer")
	ErrNameTaken    = errors.New("transport: endpoint name already joined")
	ErrQueueFull    = errors.New("transport: receive queue full")
	ErrEmptyName    = errors.New("transport: endpoint name must be non-empty")
	ErrUndelivered  = errors.New("transport: message could not be delivered")
	errShuttingDown = fmt.Errorf("%w: network shutting down", ErrClosed)
)
