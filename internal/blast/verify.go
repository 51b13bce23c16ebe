package blast

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Payload pool geometry. The pool is the only payload memory the
// harness holds: live harness heap works as GC ballast (holding 128 MiB
// raised append throughput ~30 %), so it stays small and constant.
const (
	poolPayloads = 8
	payloadBytes = 1 << 20
)

// pool is the fixed set of pre-generated payloads every write draws
// from. A write of n bytes sends one n-aligned slice of one payload (a
// "variant"). The checksum of every chunk-sized slice is computed once,
// so remembering a written chunk costs the harness four bytes, not a
// retained buffer.
type pool struct {
	data  [poolPayloads][]byte
	chunk int
	crcs  []uint32 // checksum of each chunk-sized variant
}

// newPool generates the payloads from seed; chunk is the granularity
// at which the workload verifies what it reads.
func newPool(seed int64, chunk int) *pool {
	p := &pool{chunk: chunk}
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for k := range p.data {
		buf := make([]byte, payloadBytes)
		for i := 0; i < len(buf); i += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(buf[i:], x)
		}
		p.data[k] = buf
	}
	p.crcs = make([]uint32, p.variants(chunk))
	for v := range p.crcs {
		p.crcs[v] = checksum(p.variant(chunk, v))
	}
	return p
}

func (p *pool) variants(size int) int { return poolPayloads * (payloadBytes / size) }

func (p *pool) variant(size, v int) []byte {
	per := payloadBytes / size
	off := (v % per) * size
	return p.data[v/per][off : off+size]
}

// pick draws a seeded variant of the given size and returns its bytes
// and its index.
func (p *pool) pick(rng *rand.Rand, size int) ([]byte, int) {
	v := rng.Intn(p.variants(size))
	return p.variant(size, v), v
}

// record notes in e that variant v of the given size was written at
// chunk-aligned offset off. An offset past the table (an append that
// landed where the workload did not expect it) is left unrecorded, so
// the read that covers it fails verification.
func (p *pool) record(e *expect, off uint64, size, v int) {
	first := v * (size / p.chunk) // the variant's first chunk-sized variant
	for i := 0; i < size/p.chunk; i++ {
		if c := int(off)/p.chunk + i; c < len(e.crc) {
			e.crc[c] = p.crcs[first+i]
		}
	}
}

// expect is what the harness remembers of a blob's contents: one
// checksum per chunk-aligned chunk. Writers own disjoint chunks (or
// distinct versions), so concurrent clients never touch the same entry.
type expect struct {
	chunk int
	crc   []uint32
	// flip makes check expect the wrong checksum for chunk 0: the test
	// that a corrupted read fails the run.
	flip bool
}

func (h *harness) newExpect(blobBytes, chunk int) *expect {
	return &expect{chunk: chunk, crc: make([]uint32, blobBytes/chunk), flip: h.opts.flipExpected}
}

// check reports whether buf, read at chunk-aligned offset off, matches
// what was written there.
func (e *expect) check(off uint64, buf []byte) bool {
	for i := 0; i < len(buf); i += e.chunk {
		c := (off + uint64(i)) / uint64(e.chunk)
		want := e.crc[c]
		if e.flip && c == 0 {
			want ^= 1
		}
		if checksum(buf[i:i+e.chunk]) != want {
			return false
		}
	}
	return true
}
