package c

import "testing"

// FuzzLive seeds the one live kind; the retired ones need no seed.
func FuzzLive(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = Live{}
		_ = data
	})
}
