package blast

import (
	"context"
	"sync/atomic"
	"time"

	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// taps holds what the traced run records at the two seams the program
// offers for its own reasons: the data providers' page engine
// (cluster.Config.NewStore) and the clients' transport
// (client.Config.Net). Both decorators embed the interface they wrap,
// so methods added to it later are promoted and the benchmark keeps
// building. on gates recording, so one traced process can run rounds
// with and without it and report the difference as tracing overhead.
type taps struct {
	on atomic.Bool

	put, get, del hist

	roleOf map[string]role // service address -> role
	net    [nRoles]netCounters
	dials  atomic.Uint64
}

type role int

const (
	roleVersion role = iota
	roleProviderManager
	roleData
	roleMeta
	nRoles
)

type netCounters struct {
	writes, bytesOut, bytesIn atomic.Uint64
	writeNs                   atomic.Int64
}

// timedStore times a data provider's page engine calls.
type timedStore struct {
	pagestore.Store
	t *taps
}

func (s timedStore) Put(id wire.PageID, data []byte) error {
	if !s.t.on.Load() {
		return s.Store.Put(id, data)
	}
	t0 := time.Now()
	err := s.Store.Put(id, data)
	s.t.put.add(time.Since(t0))
	return err
}

func (s timedStore) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	if !s.t.on.Load() {
		return s.Store.Get(id, off, length)
	}
	t0 := time.Now()
	data, err := s.Store.Get(id, off, length)
	s.t.get.add(time.Since(t0))
	return data, err
}

func (s timedStore) Delete(id wire.PageID) error {
	if !s.t.on.Load() {
		return s.Store.Delete(id)
	}
	t0 := time.Now()
	err := s.Store.Delete(id)
	s.t.del.add(time.Since(t0))
	return err
}

// tapNet counts what clients put on and take off the wire, by the role
// of the peer. It parses no frames, so a frame-format change cannot
// break it.
type tapNet struct {
	transport.Network
	t *taps
}

func (n tapNet) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	if n.t.on.Load() {
		n.t.dials.Add(1)
	}
	return tapConn{Conn: c, t: n.t, c: &n.t.net[n.t.roleOf[addr]]}, nil
}

type tapConn struct {
	transport.Conn
	t *taps
	c *netCounters
}

func (c tapConn) Write(p []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.c.writeNs.Add(int64(time.Since(t0)))
	c.c.writes.Add(1)
	c.c.bytesOut.Add(uint64(n))
	return n, err
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.c.bytesIn.Add(uint64(n))
	}
	return n, err
}
