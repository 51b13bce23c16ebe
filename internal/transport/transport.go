// Package transport abstracts how BlobSeer processes reach each other.
//
// Three implementations exist:
//
//   - tcp: real TCP sockets, used by the cmd/blobseerd daemon;
//   - inproc: in-memory pipes for tests and embedded clusters;
//   - simnet (package internal/simnet): a flow-level network simulator
//     over a virtual clock, used by the virtual-time rows of
//     internal/cluster to reproduce the paper's Grid'5000 testbed.
//
// All higher layers (rpc and above) depend only on the interfaces here, so
// the exact same service code runs over all three.
package transport

import (
	"context"
	"errors"
	"io"
)

// ErrClosed is returned by operations on a closed connection, listener or
// network.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownAddress is returned by Dial when no listener is bound to the
// requested address.
var ErrUnknownAddress = errors.New("transport: unknown address")

// Conn is a reliable, ordered byte stream between two processes. It is the
// minimal slice of net.Conn the rpc layer needs. Read and Write may be
// called concurrently with each other but not with themselves.
type Conn interface {
	io.Reader
	io.Writer
	io.Closer
}

// Listener accepts inbound connections bound to one address.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Close unblocks Accept with ErrClosed and releases the address.
	Close() error
	// Addr returns the address peers should dial, e.g. "10.0.0.3:4400"
	// for TCP or "node-17" for simulated networks.
	Addr() string
}

// Network creates and accepts connections. Addresses are opaque strings
// whose format is implementation-specific.
type Network interface {
	// Dial opens a connection to the listener bound at addr.
	Dial(ctx context.Context, addr string) (Conn, error)
	// Listen binds a listener. For TCP, addr may end in ":0" to pick an
	// ephemeral port; the chosen address is available from Listener.Addr.
	Listen(addr string) (Listener, error)
}
