// Command eclvet is the batch front end to the ECL static analyzer:
// it compiles every requested module through the cached pipeline and
// reports the analyzer's findings without writing any artifacts.
//
// Usage:
//
//	eclvet [flags] file.ecl [file2.ecl ... | dir]
//
// With a single file and no -module flag, eclvet analyzes the last
// module in the file (the eclc convention). With several files, a
// directory, or -all, it analyzes every module of every input
// concurrently over internal/driver's worker pool.
//
// -rules filters the report to a comma-separated set of rule IDs
// (e.g. -rules ECL001,ECL022); -severity filters by severity (error
// keeps only the value-flow certainties, warning only the heuristics);
// -json emits the findings as a JSON array on stdout instead of one
// line per finding; -list prints the rule table and exits. Findings go
// to stdout; build failures go to stderr.
//
// Exit status: 0 when every module analyzed clean, 1 when there were
// findings, 2 when a module failed to compile (or the command line was
// unusable).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/analyze"
	"repro/internal/cache"
	"repro/internal/cache/remote"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lower"
	"repro/internal/pipeline"
)

func main() {
	module := flag.String("module", "", "module to analyze (default: last module per file, or every module in batch mode)")
	all := flag.Bool("all", false, "analyze every module of every input file")
	rulesFlag := flag.String("rules", "", "comma-separated rule IDs to report (default: all)")
	severity := flag.String("severity", "", "only report findings of this severity: error or warning (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	list := flag.Bool("list", false, "print the rule table and exit")
	policy := flag.String("policy", "maximal", "splitter policy: maximal or minimal")
	minimize := flag.Bool("minimize", false, "minimize the EFSM before analysis")
	jobs := flag.Int("jobs", 0, "max concurrent module builds (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent cache directory (default $ECL_CACHE_DIR, else the user cache dir)")
	noDiskCache := flag.Bool("no-disk-cache", false, "disable the persistent on-disk cache")
	remoteCache := flag.String("remote-cache", os.Getenv(remote.EnvURL),
		"shared remote cache server URL (default $"+remote.EnvURL+"; empty disables)")
	explain := flag.Bool("explain", false, "print per-phase cache decisions (hit/miss/rebuilt) after the run")
	flag.Parse()

	if *list {
		for _, r := range analyze.Rules() {
			fmt.Printf("%s\t%-6s\t%-7s\t%s\n", r.ID, r.Level, r.Severity, r.Doc)
		}
		return
	}
	switch *severity {
	case "", analyze.SeverityError, analyze.SeverityWarning:
	default:
		fatal(fmt.Errorf("unknown severity %q (error or warning)", *severity))
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: eclvet [flags] file.ecl [file2.ecl ... | dir]")
		flag.Usage()
		os.Exit(2)
	}

	keep, err := parseRules(*rulesFlag)
	if err != nil {
		fatal(err)
	}

	opts := core.Options{Minimize: *minimize}
	switch *policy {
	case "maximal":
		opts.Policy = lower.MaximalReactive
	case "minimal":
		opts.Policy = lower.MinimalReactive
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	paths, sawDir, err := driver.CollectInputs(flag.Args())
	if err != nil {
		fatal(err)
	}
	d := driver.New(*jobs)
	if !*noDiskCache {
		store, err := cache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eclvet: disk cache disabled: %v\n", err)
		} else {
			d.Disk = store
		}
	}
	if *remoteCache != "" {
		rc, err := remote.Dial(*remoteCache)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eclvet: remote cache disabled: %v\n", err)
		} else {
			d.Remote = rc
		}
	}

	batch := *all || sawDir || len(paths) > 1
	perFile := make([][]driver.Request, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		seed := driver.Request{Path: path, Module: *module, Options: opts, Analyze: true}
		if *module != "" || !batch {
			perFile[i] = []driver.Request{seed}
			continue
		}
		// Expanding through the build driver shares each file's front
		// end with the per-module analysis builds below.
		wg.Add(1)
		go func(i int, seed driver.Request) {
			defer wg.Done()
			if expanded, err := d.ExpandModules(seed); err == nil {
				perFile[i] = expanded
			} else {
				perFile[i] = []driver.Request{seed}
			}
		}(i, seed)
	}
	wg.Wait()
	var reqs []driver.Request
	for _, rs := range perFile {
		reqs = append(reqs, rs...)
	}
	results, _ := d.Build(context.Background(), reqs)
	if d.Remote != nil {
		d.Remote.Close()
	}
	if *explain {
		printExplain(d, results)
	}

	failed := false
	var findings []analyze.Finding
	seen := map[string]bool{} // dedup findings repeated across modules
	fileDone := map[string]bool{}
	for i := range results {
		res := &results[i]
		if res.Failed() {
			failed = true
			if len(res.Diags) == 0 {
				fmt.Fprintf(os.Stderr, "eclvet: %s: %v\n", res.Path, res.Err)
			}
			for _, diag := range res.Diags {
				fmt.Fprintf(os.Stderr, "eclvet: %s\n", diag)
			}
			continue
		}
		// Module findings plus the file's design-level findings, which
		// every module of the file carries: merge those once per file.
		merged := analyze.Filter(res.Findings, keep)
		if len(res.FileFindings) > 0 && !fileDone[res.Path] {
			fileDone[res.Path] = true
			merged = append(merged, analyze.Filter(res.FileFindings, keep)...)
		}
		for _, f := range analyze.FilterSeverity(merged, *severity) {
			if line := f.String(); !seen[line] {
				seen[line] = true
				findings = append(findings, f)
			}
		}
	}
	analyze.Sort(findings)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analyze.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	switch {
	case failed:
		os.Exit(2)
	case len(findings) > 0:
		os.Exit(1)
	}
}

// parseRules validates a comma-separated -rules value against the
// shipped rule table; nil (report everything) for the empty string.
func parseRules(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, id := range analyze.RuleIDs() {
		known[id] = true
	}
	var keep []string
	for _, id := range strings.Split(s, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("unknown rule %q (eclvet -list prints the rule table)", id)
		}
		keep = append(keep, id)
	}
	if keep == nil {
		return nil, fmt.Errorf("empty -rules value")
	}
	return keep, nil
}

// printExplain mirrors eclc -explain: one grep-able key=value line per
// phase walked, then the per-phase totals.
func printExplain(d *driver.Driver, results []driver.Result) {
	for i := range results {
		res := &results[i]
		for _, ph := range res.Phases {
			key := ph.Key
			if len(key) > 12 {
				key = key[:12]
			}
			if key == "" {
				key = "-"
			}
			fmt.Fprintf(os.Stderr, "eclvet: explain file=%s module=%s phase=%s status=%s key=%s\n",
				res.Path, res.Module, ph.Phase, ph.Status, key)
		}
	}
	phases := d.CacheStats().Phases
	for _, ph := range pipeline.AllPhases() {
		c, ok := phases[ph]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr,
			"eclvet: phase-stats phase=%s mem-hits=%d disk-hits=%d remote-hits=%d shared=%d rebuilds=%d failures=%d\n",
			ph, c.MemHits, c.DiskHits, c.RemoteHits, c.Shared, c.Rebuilds, c.Failures)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eclvet:", err)
	os.Exit(2)
}
