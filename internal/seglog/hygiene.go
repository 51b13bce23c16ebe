package seglog

// Generational tombstone hygiene: when can a compactor drop a tombstone
// instead of carrying it forever?
//
// A tombstone in segment S exists to stop records in OTHER segments
// from resurrecting its key: recovery replays segments in index order
// (the chronological write order) and a full rescan would re-index any
// surviving put it meets before the tombstone's segment... and keys are
// never reused after deletion (page ids carry random bytes and are
// minted once; DHT keys are version-scoped tree-node names and versions
// only grow), so no put for the key can ever land in a segment after S.
// Therefore the tombstone in S is load-bearing exactly while some
// segment strictly below S still holds a put record for its key — live
// or dead, indexed or duplicate: any of them would resurrect the key on
// a rescan if the tombstone vanished. Puts inside S itself never
// matter: they are dead by construction (the tombstone killed them) and
// every rewrite of S drops dead puts in the same pass.
//
// So the rule the shared compactors implement is:
//
//	drop a tombstone during the rewrite of S iff no segment < S
//	contains a put record for its key
//
// and the cascade that makes churned logs converge: when a rewrite of
// an EARLIER segment drops a dead put, tombstones above it may have
// just become droppable — the store flags later tombstone-bearing
// segments for hygiene, the victim picker selects flagged segments even
// when their byte-reclaim estimate is zero, and their rewrite re-runs
// the rule and clears the flag. Each flag is set only when a record was
// actually dropped, so the cascade terminates, and a full compaction
// pass converges the log to exactly its live set.

// filterTombs resolves the rule for one victim: tombs is the set of
// tombstone keys found in the victim, and scan must walk every segment
// strictly below it, calling observe for each put record's key. observe
// returns false once every tombstone is known to be needed, letting the
// scan stop early. The returned set holds the tombstones that must be
// preserved; the rest are droppable.
func filterTombs(tombs map[string]bool, scan func(observe func(key string) bool) error) (map[string]bool, error) {
	needed := make(map[string]bool, len(tombs))
	if len(tombs) == 0 {
		return needed, nil
	}
	err := scan(func(key string) bool {
		if tombs[key] {
			needed[key] = true
		}
		return len(needed) < len(tombs)
	})
	return needed, err
}
