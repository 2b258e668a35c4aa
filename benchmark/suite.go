package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

var errIncorrect = errors.New("a workload failed its checks")

// environment is what a reader needs to place the numbers.
type environment struct {
	Seed       uint64  `json:"seed"`
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	CPU        string  `json:"cpu_model"`
	Seconds    float64 `json:"measured_seconds"`
	AllowTmpfs bool    `json:"allow_tmpfs"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// childResult is one child process's output: the run header and the
// result line.
type childResult struct {
	Header header `json:"run"`
	result
}

// runChild runs one workload in a fresh process of this same binary —
// clean heap, its own VmHWM — and parses what it printed.
func runChild(cfg config, workload string, trace bool, seed uint64) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds.Seconds()), "-dir", cfg.dir}
	if trace {
		args = append(args, "-trace", "1")
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", cfg.traceOut+"."+workload)
		}
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()

	var res childResult
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if hdr, ok := bytes.CutPrefix(sc.Bytes(), []byte("run ")); ok {
			if err := json.Unmarshal(hdr, &res.Header); err != nil {
				return nil, fmt.Errorf("%s: run header: %w", workload, err)
			}
		}
		last = bytes.Clone(sc.Bytes())
	}
	if err := json.Unmarshal(last, &res.result); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &res, nil
}

// checkEnvironment refuses a set-up whose numbers would mislead, and
// returns W.
func checkEnvironment(cfg config) (int, error) {
	w, err := procs()
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return 0, err
	}
	if onTmpfs(cfg.dir) && !cfg.allowTmpfs {
		return 0, fmt.Errorf("%s is on tmpfs, where fsync is free and ycsb.durable would measure nothing; pass -dir or -allow-tmpfs", cfg.dir)
	}
	return w, nil
}

type workloadReport struct {
	Why      string       `json:"why"`
	Untraced *childResult `json:"untraced"`
	Traced   *childResult `json:"traced,omitempty"`
}

type suiteReport struct {
	Env       environment               `json:"environment"`
	Workloads map[string]workloadReport `json:"workloads"`
	WallS     float64                   `json:"wall_s"`
}

// runSuite runs every workload untraced and traced, prints every metric by
// name with its unit, and writes the whole to out when given.
func runSuite(cfg config, out string) error {
	w, err := checkEnvironment(cfg)
	if err != nil {
		return err
	}
	began := time.Now()
	rep := suiteReport{
		Env: environment{Seed: cfg.seed, Nproc: runtime.NumCPU(), Gomaxprocs: w, GoVersion: runtime.Version(),
			GitHead: gitHead(), CPU: cpuModel(), Seconds: cfg.seconds.Seconds(), AllowTmpfs: cfg.allowTmpfs, Smoke: cfg.smoke},
		Workloads: map[string]workloadReport{},
	}
	env, _ := json.Marshal(rep.Env)
	fmt.Printf("environment %s\n", env)
	correct := true
	for _, def := range workloads {
		wr := workloadReport{Why: def.Why}
		for _, traced := range []bool{false, true} {
			res, err := runChild(cfg, def.Name, traced, cfg.seed)
			if err != nil {
				return err
			}
			correct = correct && res.Correct
			defs := endToEnd
			if traced {
				wr.Traced, defs = res, perLayer
			} else {
				wr.Untraced = res
				params, _ := json.Marshal(res.Header.Params)
				fmt.Printf("\n== %s  %s\n", def.Name, params)
			}
			for _, d := range defs {
				line := fmt.Sprintf("%-16s %-38s %16.4f %s", def.Name, d.Name, res.Metrics[d.Name].Value, d.Unit)
				if n, ok := res.Header.Samples[d.Name]; ok {
					line += fmt.Sprintf("  (n=%d)", n)
				}
				fmt.Println(line)
			}
			fmt.Printf("%-16s %-38s %16d of %d attempted\n", def.Name, "failed", res.Failed, res.Attempted)
		}
		rep.Workloads[def.Name] = wr
	}
	rep.WallS = time.Since(began).Seconds()
	fmt.Printf("\ntotal wall time %.1f s\n", rep.WallS)
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// runAA runs the untraced suite n times on the same code, each time with
// another seed as the acceptance rule does, and reports for every workload
// and end-to-end metric the distance between the first and third quartile
// of its values as a share of their median, against the metric's bound.
func runAA(cfg config, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs, got %d", n)
	}
	if _, err := checkEnvironment(cfg); err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < n; i++ {
		for _, def := range workloads {
			res, err := runChild(cfg, def.Name, false, cfg.seed+uint64(i))
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s (seed %d): %w", def.Name, cfg.seed+uint64(i), errIncorrect)
			}
			if values[def.Name] == nil {
				values[def.Name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[def.Name][d.Name] = append(values[def.Name][d.Name], res.Metrics[d.Name].Value)
			}
			fmt.Printf("run %d/%d  %-16s done\n", i+1, n, def.Name)
		}
	}
	fmt.Printf("\n%-16s %-16s %14s %14s %14s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	exceeded := 0
	for _, def := range workloads {
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[def.Name][d.Name])
			spread := ratio(q3-q1, q2)
			verdict := ""
			// setup_s is held to its bound between sets of runs, not
			// within one: it is a median of three already.
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-16s %-16s %14.4f %14.4f %14.4f %8.4f %6.2f%s\n", def.Name, d.Name, q1, q2, q3, spread, d.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d end-to-end metrics spread beyond their bound", exceeded)
	}
	return nil
}
