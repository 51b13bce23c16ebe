package dht

import "blobseer/internal/rpc"

// The package's tests run with released rpc frame buffers poisoned: a
// decoded DHT_MULTI_PUT's keys and values alias their frame, so a node
// that kept a sub-slice instead of a copy would serve garbage every
// time, not rarely.
func init() { rpc.PoisonReleasedFrames() }
