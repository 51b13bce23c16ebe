// Package overlaid is the file TestLoadReadsOverlay replaces through an
// overlay.
package overlaid

// OnDisk is declared only by the file on disk.
func OnDisk() int { return 1 }
