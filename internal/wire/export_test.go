package wire

// Decode is one Decoder.Decode through a fresh Decoder.
func Decode(k Kind, body []byte) (Msg, error) {
	var d Decoder
	return d.Decode(k, body)
}
