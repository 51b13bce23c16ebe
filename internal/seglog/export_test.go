package seglog

import "blobseer/internal/obs"

// encodeRecord builds one record's complete frame in a fresh buffer,
// for the tests that pin the record encoding.
func (ly *KVLayout) encodeRecord(kind byte, key string, value []byte) []byte {
	return ly.appendRecord(nil, kind, key, value)
}

// decodeRecord parses a whole record payload; value aliases payload. The
// store itself only ever needs decodeHead; the fuzz targets pin that
// the two agree and that the encoding is canonical.
func (ly *KVLayout) decodeRecord(payload []byte) (kind byte, key string, value []byte, err error) {
	kind, key, vlen, err := ly.decodeHead(payload, len(payload))
	if err != nil {
		return 0, "", nil, err
	}
	return kind, key, payload[len(payload)-vlen:], nil
}

// kvStats is a test's reading of the store series it asserts on.
type kvStats struct {
	Keys, ValueBytes, Appends, Syncs, Snapshots, Compactions uint64
	LogBytes                                                 int64
}

func stats(s *KV) kvStats {
	v := func(name string) uint64 { return uint64(obs.Value(s, name)) }
	return kvStats{v("store_keys"), v("store_value_bytes"), v("store_appends_total"), v("store_syncs_total"),
		v("store_snapshots_total"), v("store_compactions_total"), int64(v("store_log_bytes"))}
}
