package seglog

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestKVGoldenBytes is the machine-checked form of "the on-disk formats
// did not change": a fixed scripted history — puts across several
// rolls, a duplicate put, deletes, a snapshot, tail records, a
// compaction and its covering snapshot — must leave segment and
// snapshot files whose bytes equal the fixtures under testdata/, and
// the final directory must reopen with the recovery stats recorded
// there. The page store's fixture was captured by running the script
// against the pre-unification pagestore.Disk. The metadata log's
// (golden_varkey.txt) was generated by this code when the log's keys
// became raw 33-byte tree-node keys, segment format 2: the length-framed
// format 1 it replaced has no reader left.
func TestKVGoldenBytes(t *testing.T) {
	gval := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 10+7*i) }
	eachLayout(t, func(t *testing.T, ly *KVLayout) {
		want, err := os.ReadFile(filepath.Join("testdata", "golden_"+filepath.Base(t.Name())+".txt"))
		must(t, err)

		// Both values of the deprecated GroupCommit field must produce
		// the fixture's bytes: the field selects nothing.
		for _, opts := range []KVOptions{{SegmentBytes: 200}, {SegmentBytes: 200, GroupCommit: true}} {
			dir := t.TempDir()
			path := filepath.Join(dir, "kv.log")
			s := mustOpenKV(t, path, ly, opts)
			for i := 0; i < 8; i++ {
				must(t, s.Put(tkey(ly, i), gval(i)))
			}
			// Bypass Put's dedupe, as two racing Puts of one key do.
			must(t, s.commitAll(s.newAppend(kvPut, tkey(ly, 2), gval(2))))
			for _, i := range []int{1, 3, 4} {
				must(t, s.Delete(tkey(ly, i)))
			}
			must(t, s.Snapshot())
			var got strings.Builder
			dumpDir(t, &got, "snap", dir)
			must(t, s.Put(tkey(ly, 8), gval(8)))
			must(t, s.Put(tkey(ly, 9), gval(9)))
			must(t, s.Delete(tkey(ly, 0)))
			must(t, s.Delete(tkey(ly, 8)))
			must(t, s.Compact())
			must(t, s.Close())
			dumpDir(t, &got, "final", dir)

			s2 := mustOpenKV(t, path, ly, opts)
			rs, st, st1 := s2.recStats, stats(s2), stats(s)
			fmt.Fprintf(&got, "recovery loaded=%v entries=%d segs=%d rescanned=%d stale=%d replayed=%d\n",
				rs.SnapshotLoaded, rs.SnapshotEntries, rs.SegmentsOnDisk, rs.SegmentsRescanned, rs.StaleRescanned, rs.RecordsReplayed)
			fmt.Fprintf(&got, "stats keys=%d bytes=%d log=%d snaps=%d compactions=%d\n",
				st.Keys, st.ValueBytes, st.LogBytes, st1.Snapshots, st1.Compactions)

			if got.String() != string(want) {
				gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d differs from the fixture:\n got %s\nwant %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("fixture has %d lines, run produced %d", len(wl), len(gl))
			}
		}
	})
}

// dumpDir appends one "stage name hex" line per file in dir.
func dumpDir(t *testing.T, sb *strings.Builder, stage, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	must(t, err)
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, n := range names {
		raw, err := os.ReadFile(filepath.Join(dir, n))
		must(t, err)
		fmt.Fprintf(sb, "%s %s %s\n", stage, n, hex.EncodeToString(raw))
	}
}
