package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// side is one of the two code versions a comparison runs.
type side struct {
	Rev    string `json:"rev"`
	Commit string `json:"commit,omitempty"` // the revision's commit; empty for the working tree
	dir    string // the checkout's root
}

// git runs git in dir and returns its trimmed standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", append([]string{"-C", dir}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// checkout resolves rev in the repository at root and checks its commit
// out, detached, as a new worktree at dir.
func checkout(ctx context.Context, root, rev, dir string) (side, error) {
	commit, err := git(ctx, root, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return side{}, err
	}
	if _, err := git(ctx, root, "worktree", "add", "--detach", dir, commit); err != nil {
		return side{}, err
	}
	return side{Rev: rev, Commit: commit, dir: dir}, nil
}

// removeCheckout removes a checkout's worktree, its build included, and
// the worktree's record in the repository. It runs on the way out, also
// after an interrupt, so it takes no context.
func removeCheckout(root string, s side) {
	if _, err := git(context.Background(), root, "worktree", "remove", "--force", s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
	}
}

// goCache is the Go build cache the checkout at dir's run.sh builds with.
func goCache(dir string) string { return filepath.Join(dir, ".bench_build", "gocache") }

// seedCache copies the Go build cache at from to to; when from does not
// exist it does nothing. The cache's entries are keyed by the hash of
// their inputs, so a checkout reuses only what its own source would have
// produced. They are copied, not linked: the go command rewrites some
// entries in place.
func seedCache(from, to string) error {
	if _, err := os.Stat(from); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		switch {
		case d.IsDir():
			return os.MkdirAll(dst, 0o777)
		case d.Type().IsRegular():
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(dst, b, 0o666)
		}
		return nil // the cache holds no links or devices; skip any
	})
}

// buildSides builds each side in turn with build. A side with no Go cache
// of its own yet — a new worktree, or the invoking checkout at root
// before run.sh has built there — starts from a copy of a built one: the
// invoking checkout's, or else the first side's once it is built.
func buildSides(ctx context.Context, root string, sides []side, build func(context.Context, string) error) error {
	seed := goCache(root)
	for _, s := range sides {
		if _, err := os.Stat(goCache(s.dir)); errors.Is(err, fs.ErrNotExist) {
			if err := seedCache(seed, goCache(s.dir)); err != nil {
				return fmt.Errorf("seeding %s's build cache: %w", s.Rev, err)
			}
		}
		if err := build(ctx, s.dir); err != nil {
			return fmt.Errorf("building %s: %w", s.Rev, err)
		}
		if _, err := os.Stat(seed); err != nil {
			seed = goCache(s.dir)
		}
	}
	return nil
}

// build builds the checkout's benchmark through its own run.sh, so the
// first measured run does not build.
func build(ctx context.Context, dir string) error {
	_, _, err := runScript(ctx, dir, "-manifest")
	return err
}

// runScript runs the checkout's benchmark/run.sh with args and returns
// its standard output and error.
func runScript(ctx context.Context, dir string, args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.CommandContext(ctx, "bash", append([]string{"benchmark/run.sh"}, args...)...)
	cmd.Dir = dir
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("run.sh %s in %s: %v: %s", strings.Join(args, " "), dir, err, lastLines(e.String(), 5))
	}
	return o.Bytes(), e.Bytes(), nil
}

// lastLines returns s's last n lines.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// runFunc runs one untraced benchmark run of workload in the checkout at
// dir, at seed ("" for the benchmark's default), measuring for seconds.
type runFunc func(ctx context.Context, dir, workload, seed string, seconds float64) (sample, error)

// benchRun is the runFunc that runs the checkout's benchmark.
func benchRun(ctx context.Context, dir, workload, seed string, seconds float64) (sample, error) {
	args := []string{"--workload", workload, "--trace", "0", "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if seed != "" {
		args = append(args, "--seed", seed)
	}
	stdout, stderr, err := runScript(ctx, dir, args...)
	if err != nil {
		return sample{}, err
	}
	return parseRun(stdout, stderr)
}

// sample is what one benchmark run reported.
type sample struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Metrics are the result object's values, the wall-clock ones in
	// quiet-host seconds; Raw the host line's uncorrected readings of
	// those, and Factor what they were divided by.
	Metrics map[string]float64 `json:"metrics"`
	Raw     map[string]float64 `json:"raw"`
	Factor  float64            `json:"factor"`
}

// parseRun reads a run's result object, the last line of its standard
// output, and the `host:` line of its standard error:
//
//	host: yardstick slowdown 1.058 over 21 samples, times divided by 1.037; raw cmps_per_s 1.2e+05 job_s_p50 0.14 …
func parseRun(stdout, stderr []byte) (sample, error) {
	var s sample
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Metrics == nil {
		return s, fmt.Errorf("no result object on the last line of the run's output: %q", lines[len(lines)-1])
	}
	s.Correct, s.Attempted, s.Failed = res.Correct, res.Attempted, res.Failed
	s.Metrics = make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		s.Metrics[name] = m.Value
	}

	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "host: yardstick ")
		if !ok {
			continue
		}
		head, raw, ok := strings.Cut(line, "; raw ")
		_, factor, ok2 := strings.Cut(head, "divided by ")
		f, err := strconv.ParseFloat(factor, 64)
		fields := strings.Fields(raw)
		if !ok || !ok2 || err != nil || len(fields)%2 != 0 {
			return s, fmt.Errorf("unreadable host line %q", sc.Text())
		}
		s.Factor = f
		s.Raw = map[string]float64{}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return s, fmt.Errorf("host line %q: %w", sc.Text(), err)
			}
			s.Raw[fields[i]] = v
		}
	}
	if s.Raw == nil {
		return s, errors.New("the run printed no host: line")
	}
	return s, nil
}
