package seglog

// encodeRecord builds one record's complete frame in a fresh buffer,
// for the tests that pin the record encoding.
func (ly *KVLayout) encodeRecord(kind byte, key string, value []byte) []byte {
	return ly.appendRecord(nil, kind, key, value)
}
