//go:build !race

package meta

const raceEnabled = false
