//go:build race

package meta

const raceEnabled = true
