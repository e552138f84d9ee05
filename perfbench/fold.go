package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// modulePrefix is the import-path prefix of the simulator's layers: a
// profile frame under it belongs to the package named by the next path
// element.
const modulePrefix = "github.com/ilan-sched/ilan/internal/"

// gcFrames are the Go runtime's collector and allocator entry points. A
// sample with any of them on its stack is charged to the "gc" layer, not
// to the package that allocated.
var gcFrames = []string{
	"runtime.mallocgc", // prefix: also mallocgcSmallNoscan and friends
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.gcStart",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.GC",
}

// foldTraces reads the text `go tool pprof -traces` prints for a CPU
// profile and returns each layer's share of the sampled time. A sample
// belongs to "gc" when a collector or allocator frame is on its stack,
// else to the package of its innermost frame under modulePrefix, else to
// "other". The shares sum to 1 when any sample was taken.
func foldTraces(r io.Reader) (map[string]float64, error) {
	byLayer := map[string]float64{}
	total := 0.0
	var weight float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byLayer[layerOf(stack)] += weight
			total += weight
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue // the File/Type/Duration header
		}
		frame := strings.TrimSpace(line)
		if len(stack) == 0 {
			// The first line of a sample is "<value>   <innermost frame>".
			fields := strings.Fields(frame)
			if len(fields) < 2 {
				return nil, fmt.Errorf("fold: sample line %q has no frame", line)
			}
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("fold: %w", err)
			}
			weight = v
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
		}
		stack = append(stack, strings.TrimSuffix(frame, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fold: %w", err)
	}
	flush()
	if total > 0 {
		for k := range byLayer {
			byLayer[k] /= total
		}
	}
	return byLayer, nil
}

// layerOf names the layer a sample's stack (innermost frame first) is
// charged to.
func layerOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

// parseDuration reads a pprof sample value such as "10ms" or "1.50s" in
// seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("bad sample value %q", s)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("bad sample value %q", s)
}

// foldProfile runs `go tool pprof -traces` on CPU profiles, which it
// merges, and folds its output by layer. The go command is the toolchain
// that built this program; pprof's scratch files go to tmpDir.
func foldProfile(paths []string, tmpDir string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmpDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}
