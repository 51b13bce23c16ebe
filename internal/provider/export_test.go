package provider

import "blobseer/internal/rpc"

// The package's tests run with released rpc frame buffers poisoned: a
// handler that kept page bytes past its return would serve garbage every
// time, not rarely. (No benchmarks live here to be slowed by it.)
func init() { rpc.PoisonReleasedFrames() }

// ProviderCount returns the number of live providers, after an expiry
// scan.
func (m *Manager) ProviderCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	return len(m.live)
}
