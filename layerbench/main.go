// Command layerbench is the repository's benchmark: three closed-loop
// workloads that time the η-involution kernel and the sweep serving path
// end to end, and, in a traced run, attribute each job's time to the
// layers it passes through. See README.md.
//
// Usage (from the repository root):
//
//	bash layerbench/run.sh --workload kernel-glitch|sweep-cold|sweep-warm \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the host
// fingerprint. The exit code is 0 only when every validity check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	size     string
	out      string // directory for temporary lakes and span files
	log      io.Writer
	// digests are the stored reference digests (see digests.go); tests
	// substitute tampered ones.
	digests map[string]map[int64]string
}

// digestOK checks a digest against the stored one for this seed and size,
// if one is stored.
func (c config) digestOK(kind, got string) bool {
	want, ok := c.digests[kind+"/"+c.size][c.seed]
	if !ok {
		fmt.Fprintf(c.log, "%s: no stored digest for seed %d (size %s); internal checks only\n", kind, c.seed, c.size)
		return true
	}
	if got != want {
		fmt.Fprintf(c.log, "%s: digest %s for seed %d, stored %s\n", kind, got, c.seed, want)
		return false
	}
	return true
}

// writeSpans writes a traced run's spans as JSONL under the output
// directory.
func (c config) writeSpans(spans []span) error {
	dir := filepath.Join(c.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	fmt.Fprintf(c.log, "%d spans written to %s\n", len(spans), path)
	return writeJSONL(path, spans)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{log: stderr, digests: storedDigests}
	fs.StringVar(&cfg.workload, "workload", "", "kernel-glitch | sweep-cold | sweep-warm")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long the timed phase measures (it also completes at least 1000 jobs)")
	traceFlag := fs.Int("trace", 0, "1: also run a traced phase and report the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.size, "size", "full", "workload size: full | tiny (tests)")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for temporary lakes, journals and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "layerbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "layerbench: --seconds must be at least 1")
		return 2
	}

	var res *result
	var err error
	switch cfg.workload {
	case "kernel-glitch":
		res, err = runKernel(cfg)
	case "sweep-cold", "sweep-warm":
		res, err = runSweep(cfg)
	default:
		fmt.Fprintf(stderr, "layerbench: unknown --workload %q\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	host, _ := json.Marshal(map[string]hostInfo{"host": fingerprint(cfg.workload, cfg.seed, cfg.size, cfg.seconds, cfg.trace)})
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n%s\n", host, line)
	if !res.Correct {
		return 1
	}
	return 0
}
