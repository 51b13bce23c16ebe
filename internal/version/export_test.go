package version

import (
	"context"

	"blobseer/internal/wire"
)

// Apply dispatches one request in-process, bypassing the transport, for
// tests that drive the manager's handlers directly.
func (m *Manager) Apply(ctx context.Context, req wire.Msg) (wire.Msg, error) {
	return m.newMux().Handle(ctx, req)
}
