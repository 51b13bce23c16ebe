package seglog

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
