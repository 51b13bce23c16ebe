package seglog

import (
	"errors"
	"testing"
)

func TestFilterTombsKeepsOnlyCoveredKeys(t *testing.T) {
	tombs := map[string]bool{"a": true, "b": true, "c": true}
	// Earlier segments hold puts for a and c (b's put is long gone).
	needed, err := filterTombs(tombs, func(observe func(string) bool) error {
		for _, k := range []string{"x", "a", "y", "c"} {
			if !observe(k) {
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(needed) != 2 || !needed["a"] || !needed["c"] {
		t.Fatalf("needed = %v, want {a, c}", needed)
	}
}

func TestFilterTombsEmptySkipsScan(t *testing.T) {
	needed, err := filterTombs(map[string]bool{}, func(func(string) bool) error {
		t.Fatal("scan ran with no tombstones to resolve")
		return nil
	})
	if err != nil || len(needed) != 0 {
		t.Fatalf("needed = %v, err = %v", needed, err)
	}
}

func TestFilterTombsStopsEarlyWhenAllNeeded(t *testing.T) {
	tombs := map[string]bool{"a": true, "b": true}
	calls := 0
	_, err := filterTombs(tombs, func(observe func(string) bool) error {
		for _, k := range []string{"a", "b", "never-reached", "never-reached"} {
			calls++
			if !observe(k) {
				return nil
			}
		}
		return errors.New("scan was not stopped")
	})
	if err != nil {
		t.Fatal(err)
	}
	// observe("b") resolves the last unknown and returns false: 2 calls.
	if calls != 2 {
		t.Fatalf("scan observed %d keys, want early stop at 2", calls)
	}
}

func TestFilterTombsPropagatesScanError(t *testing.T) {
	errScan := errors.New("disk fault")
	_, err := filterTombs(map[string]bool{"a": true}, func(func(string) bool) error {
		return errScan
	})
	if !errors.Is(err, errScan) {
		t.Fatalf("err = %v, want %v", err, errScan)
	}
}
