//go:build race

package bufpool

const raceEnabled = true
