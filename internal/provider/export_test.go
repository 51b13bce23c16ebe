package provider

import (
	"blobseer/internal/bufpool"
	"blobseer/internal/obs"
)

// The package's tests run with released rpc frame buffers poisoned: a
// handler that kept page bytes past its return would serve garbage every
// time, not rarely. (No benchmarks live here to be slowed by it.)
func init() { bufpool.PoisonReleased(true) }

// ProviderCount returns the number of live providers, after an expiry
// scan, as the manager's metrics report it.
func (m *Manager) ProviderCount() int {
	return int(obs.Value(m, "provider_manager_live_providers"))
}
