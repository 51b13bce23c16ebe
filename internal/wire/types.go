package wire

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// BlobID identifies a blob. IDs are assigned sequentially by the version
// manager and are unique within a cluster.
type BlobID uint64

// String renders the id in the form used by the CLI tools.
func (b BlobID) String() string { return fmt.Sprintf("blob-%d", uint64(b)) }

// Version numbers snapshots of a blob. Version 0 is the empty snapshot
// that exists from CREATE; the first update produces version 1.
type Version = uint64

// NoVersion is the sentinel stored in an inner tree node for a child range
// that has never been written (a hole in an incomplete tree). Readers never
// descend into such children because reads are bounded by the snapshot
// size.
const NoVersion Version = ^uint64(0)

// PageID globally and uniquely identifies one stored page. Clients draw
// ids from a local generator seeded with cryptographically random bytes,
// so ids never collide across concurrent clients — this is what lets
// writers store pages with no coordination (§3.3 of the paper).
type PageID [16]byte

// String renders the id as hex, for logs and debugging.
func (p PageID) String() string { return hex.EncodeToString(p[:]) }

// IsZero reports whether p is the all-zero (invalid) id.
func (p PageID) IsZero() bool { return p == PageID{} }

// PageIDGen hands out unique PageIDs. The high 8 bytes are a random
// generator instance id; the low 8 bytes are a local counter. A zero
// PageIDGen is not usable; construct with NewPageIDGen.
type PageIDGen struct {
	prefix [8]byte
	ctr    atomic.Uint64
}

// NewPageIDGen creates a generator with a cryptographically random prefix.
func NewPageIDGen() *PageIDGen {
	g := &PageIDGen{}
	if _, err := rand.Read(g.prefix[:]); err != nil {
		panic("wire: cannot seed page id generator: " + err.Error())
	}
	return g
}

// Next returns a fresh unique PageID.
func (g *PageIDGen) Next() PageID {
	var id PageID
	copy(id[:8], g.prefix[:])
	binary.LittleEndian.PutUint64(id[8:], g.ctr.Add(1))
	return id
}

// UpdateDesc describes an update (WRITE or APPEND) that has been assigned a
// snapshot version: the version and the byte range it rewrites. The version
// manager returns the descriptors of all in-flight lower-versioned updates
// to a newly assigned writer so it can compute border-node versions without
// waiting for those updates to publish (§4.2, "Why WRITEs and APPENDs may
// proceed in parallel").
type UpdateDesc struct {
	Version Version
	Offset  uint64
	Size    uint64
}

func (u *UpdateDesc) code(c *Codec) {
	c.Uint64(&u.Version)
	c.Uint64(&u.Offset)
	c.Uint64(&u.Size)
}

// LineageEntry says that versions >= MinVersion of some blob were written
// under blob Blob's namespace. A blob's lineage is the chain produced by
// BRANCH: the youngest entry is the blob itself, the oldest is the root
// ancestor with MinVersion 0.
type LineageEntry struct {
	Blob       BlobID
	MinVersion Version
}

// Code is the entry's layout, which the version manager's snapshot
// stores lineages with too.
func (e *LineageEntry) Code(c *Codec) {
	c.Uint64((*uint64)(&e.Blob))
	c.Uint64(&e.MinVersion)
}

// Lineage is an owner-resolution chain, youngest entry first.
type Lineage []LineageEntry

// Owner returns the blob under whose namespace version v was written.
// The lineage must be well formed (youngest first, last entry MinVersion 0).
func (l Lineage) Owner(v Version) BlobID {
	for _, e := range l {
		if v >= e.MinVersion {
			return e.Blob
		}
	}
	if len(l) == 0 {
		return 0
	}
	return l[len(l)-1].Blob
}
