package blast

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// Env describes where and how a result was measured, so two result
// files can be checked for comparability before their numbers are.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Rounds     int    `json:"rounds"`
	Clients    int    `json:"clients"`
	Quick      bool   `json:"quick"`
	Revision   string `json:"git_revision"`
	Flush      string `json:"flush_policy"`
}

// flushPolicy is the rig's, the same on both sides of any comparison.
const flushPolicy = "page fsync off, metadata fsync off, WAL fsync off, page group commit on"

func (h *harness) env() Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		DataDirFS:  fsType(h.base),
		Seed:       h.opts.Seed,
		Seconds:    h.opts.Seconds,
		Rounds:     h.roundIdx,
		Clients:    h.clients,
		Quick:      h.opts.Quick,
		Revision:   "unknown",
		Flush:      flushPolicy,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Revision = s.Value
			}
		}
	}
	return e
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
