package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestCalibrationMatchesPaperLink(t *testing.T) {
	tab, err := RunCalibration(SimParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "117.5") {
		t.Fatalf("calibration table missing paper figure:\n%s", out)
	}
}

func TestFig2aSmall(t *testing.T) {
	series, err := RunFig2a(Fig2aConfig{
		PageSizes:      []uint64{64 << 10},
		ProviderCounts: []int{8},
		AppendPages:    32,
		TotalPages:     192,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	pts := series[0].Points
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		// Sustained bandwidth: well above half the link, never above it.
		if p.Y < 40 || p.Y > 118 {
			t.Errorf("append bandwidth at %v pages = %.1f MB/s, implausible", p.X, p.Y)
		}
	}
	if pts[len(pts)-1].X != 192 {
		t.Errorf("last point at %v pages", pts[len(pts)-1].X)
	}
}

func TestFig2bSmall(t *testing.T) {
	s, err := RunFig2b(Fig2bConfig{
		Providers:    8,
		BlobBytes:    512 << 20, // 512 MB-equivalent
		ChunkBytes:   32 << 20,
		ReaderCounts: []int{1, 4, 8},
		GrowPages:    512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	single := s.Points[0].Y
	most := s.Points[len(s.Points)-1].Y
	if single < 40 || single > 118 {
		t.Errorf("single reader bandwidth %.1f MB/s implausible", single)
	}
	if most > single*1.1 {
		t.Errorf("read bandwidth grew under concurrency: %.1f -> %.1f", single, most)
	}
}

// serializedWriters4 is the 4-writer aggregate (MB/s) of the
// serialized-metadata baseline at TestWritersAblationSmall's
// configuration, recorded in BENCH_baselines.json (a1_writers_small);
// no code in the tree can produce it. Both sides are virtual-clock
// figures that repeat to the printed digit: border-set weaving gives
// 334.7.
const serializedWriters4 = 279.1

func TestWritersAblationSmall(t *testing.T) {
	s, err := RunWriters(WritersConfig{
		Providers:        8,
		WriterCounts:     []int{1, 4},
		AppendsPerWriter: 4,
		ChunkBytes:       1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// With 4 writers the paper's mechanism must beat the serialized
	// baseline on aggregate throughput.
	w1, w4 := s.Points[0].Y, s.Points[1].Y
	if !(w4 > serializedWriters4) {
		t.Errorf("border-set %.1f MB/s not better than serialized %.1f MB/s", w4, serializedWriters4)
	}
	// And concurrency must help the paper's mode.
	if w4 <= w1*1.2 {
		t.Errorf("aggregate did not scale: 1 writer %.1f, 4 writers %.1f", w1, w4)
	}
}

func TestSpaceAblation(t *testing.T) {
	tab, err := RunSpace(SpaceConfig{
		PageSize:       4 << 10,
		BlobPages:      512,
		Overwrites:     20,
		OverwritePages: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	if !strings.Contains(sb.String(), "saving vs naive") {
		t.Fatalf("table malformed:\n%s", sb.String())
	}
}

func TestSeriesFprint(t *testing.T) {
	s := Series{Name: "n", XLabel: "x", YLabel: "y",
		Points: []Point{{X: 1, Y: math.Pi}}}
	var sb strings.Builder
	s.Fprint(&sb)
	if !strings.Contains(sb.String(), "3.1") {
		t.Fatalf("series print: %q", sb.String())
	}
}

func TestReplicationAblationSmall(t *testing.T) {
	tab, err := RunReplication(ReplicationConfig{
		Providers:   6,
		Factors:     []int{1, 2},
		AppendBytes: 4 << 20,
		Readers:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	// R=1: paper layout, provider loss is fatal. R=2: loss survivable.
	if tab.Rows[0][3] != "false" {
		t.Errorf("R=1 should not survive provider loss: %v", tab.Rows[0])
	}
	if tab.Rows[1][3] != "true" {
		t.Errorf("R=2 should survive provider loss: %v", tab.Rows[1])
	}
	// Replication costs write bandwidth: R=2 must be measurably slower.
	parse := func(s string) float64 {
		var f float64
		fmt.Sscanf(s, "%f", &f)
		return f
	}
	if a1, a2 := parse(tab.Rows[0][1]), parse(tab.Rows[1][1]); a2 >= a1 {
		t.Errorf("append bandwidth did not drop with replication: R=1 %.1f, R=2 %.1f", a1, a2)
	}
}
