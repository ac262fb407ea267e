// Command eclc is the ECL compiler driver: it reads ECL source files,
// compiles their modules, and writes the requested artifacts —
// mirroring the paper's flow (split to Esterel + C + glue, compile to
// an EFSM, synthesize software or hardware).
//
// Usage:
//
//	eclc [flags] file.ecl [file2.ecl ... | dir]
//
// With a single file and no -module flag, eclc compiles the last
// module in the file (the historical behavior). With several files, a
// directory, or -all, it batch-compiles every module of every input
// concurrently over internal/driver's worker pool.
//
// Targets (comma separated): esterel, c, go, glue, dot, verilog, vhdl,
// stats. Default: esterel,c,glue,stats written to the output directory
// (default ".").
//
// Builds go through a tiered cache: the pipeline's in-process memory
// tier, a persistent on-disk phase store (default $ECL_CACHE_DIR, else
// the user cache dir), and optionally a shared remote cache server
// (-remote-cache URL, default $ECL_REMOTE_CACHE — an eclcached
// instance), so a design compiled anywhere in a fleet is a hit
// everywhere. -no-disk-cache opts out of the disk tier, -cache-dir
// relocates the store, and -cache-stats reports every tier's hit
// rates. The store itself is managed with the cache subcommand:
//
//	eclc cache stats|gc|clear [-cache-dir dir] [-max-bytes n] [-max-age d]
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analyze"
	"repro/internal/cache"
	"repro/internal/cache/remote"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lower"
	"repro/internal/pipeline"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "cache" {
		cacheCmd(os.Args[2:])
		return
	}

	module := flag.String("module", "", "module to compile (default: last module per file, or every module in batch mode)")
	all := flag.Bool("all", false, "compile every module of every input file")
	policy := flag.String("policy", "maximal", "splitter policy: maximal or minimal")
	target := flag.String("target", "esterel,c,glue,stats", "comma-separated targets: esterel,c,go,glue,dot,verilog,vhdl,stats")
	outDir := flag.String("o", ".", "output directory")
	minimize := flag.Bool("minimize", false, "minimize the EFSM before synthesis")
	vet := flag.Bool("vet", false, "run the static analyzer over each compiled module and report findings (exit 1 on any)")
	jobs := flag.Int("jobs", 0, "max concurrent module builds (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent cache directory (default $ECL_CACHE_DIR, else the user cache dir)")
	noDiskCache := flag.Bool("no-disk-cache", false, "disable the persistent on-disk cache")
	remoteCache := flag.String("remote-cache", os.Getenv(remote.EnvURL),
		"shared remote cache server URL (default $"+remote.EnvURL+"; empty disables)")
	cacheStats := flag.Bool("cache-stats", false, "report cache hit rates after the build")
	explain := flag.Bool("explain", false, "print per-phase cache decisions (hit/miss/rebuilt) after the build")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: eclc [flags] file.ecl [file2.ecl ... | dir]")
		fmt.Fprintln(os.Stderr, "       eclc cache stats|gc|clear [flags]")
		flag.Usage()
		os.Exit(2)
	}

	targets, err := driver.ParseTargets(*target)
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
			// An unusable store (no writable cache dir) degrades to a
			// memory-only build rather than failing the compile.
			fmt.Fprintf(os.Stderr, "eclc: disk cache disabled: %v\n", err)
		} else {
			d.Disk = store
		}
	}
	if *remoteCache != "" {
		rc, err := remote.Dial(*remoteCache)
		if err != nil {
			// A malformed URL degrades to a local-only build; an
			// unreachable server already degrades inside the client.
			fmt.Fprintf(os.Stderr, "eclc: remote cache disabled: %v\n", err)
		} else {
			d.Remote = rc
		}
	}

	batch := *all || sawDir || len(paths) > 1
	perFile := make([][]driver.Request, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		seed := driver.Request{Path: path, Module: *module, Targets: targets, Options: opts, Analyze: *vet}
		if *module != "" || !batch {
			perFile[i] = []driver.Request{seed}
			continue
		}
		// Expand each file's module list concurrently. Expanding
		// through the build driver runs each file's front end exactly
		// once: the per-module builds below reuse the file unit
		// (phase=sem status=shared) instead of re-parsing. A file that
		// fails to expand (e.g. a parse error) still joins the batch
		// unexpanded: the driver reports it as a structured failure
		// while the other files compile.
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
		// Drain the async uploads before reporting stats or exiting, so
		// a CI fleet's next build sees everything this one compiled.
		d.Remote.Close()
	}
	if *explain {
		printExplain(d, results)
	}
	if *cacheStats {
		printCacheStats(d)
	}

	failed := false
	vetFindings := 0
	seenFindings := map[string]bool{} // dedup findings repeated across modules
	fileDone := map[string]bool{}     // files whose design-level findings are printed
	writtenBy := map[string]string{}  // output path -> source file
	for i := range results {
		res := &results[i]
		vet := res.Findings
		// Every module of a file carries the file's design-level
		// findings: print those once per file.
		if len(res.FileFindings) > 0 && !fileDone[res.Path] {
			fileDone[res.Path] = true
			vet = append(append([]analyze.Finding(nil), vet...), res.FileFindings...)
		}
		for _, f := range vet {
			line := f.String()
			if seenFindings[line] {
				continue
			}
			seenFindings[line] = true
			vetFindings++
			fmt.Fprintf(os.Stderr, "eclc: vet: %s\n", line)
		}
		if res.Failed() {
			failed = true
			if len(res.Diags) == 0 {
				fmt.Fprintf(os.Stderr, "eclc: %s: %v\n", res.Path, res.Err)
			}
			for _, diag := range res.Diags {
				fmt.Fprintf(os.Stderr, "eclc: %s\n", diag)
			}
			continue
		}
		for _, t := range targets {
			text := res.Artifacts[t]
			if t == driver.TargetStats {
				fmt.Print(text)
				continue
			}
			out := filepath.Join(*outDir, t.Filename(res.Module))
			if prev, clash := writtenBy[out]; clash {
				failed = true
				fmt.Fprintf(os.Stderr,
					"eclc: %s: module %s collides with module of the same name in %s (both write %s); use separate -o directories\n",
					res.Path, res.Module, prev, out)
				break
			}
			writtenBy[out] = res.Path
			if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", out)
		}
	}
	if failed || vetFindings > 0 {
		os.Exit(1)
	}
}

// printExplain reports, per request, how each pipeline phase was
// satisfied, followed by the per-phase totals — one stable, grep-able
// key=value line per row (the CI incremental dogfood step greps
// `phase=efsm status=disk-hit` from it). A request served whole by its
// root entry shows the single phase "design", which the totals leave
// out (-cache-stats reports it).
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
			fmt.Fprintf(os.Stderr, "eclc: explain file=%s module=%s phase=%s status=%s key=%s\n",
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
			"eclc: phase-stats phase=%s mem-hits=%d disk-hits=%d remote-hits=%d shared=%d rebuilds=%d failures=%d\n",
			ph, c.MemHits, c.DiskHits, c.RemoteHits, c.Shared, c.Rebuilds, c.Failures)
	}
}

// printCacheStats reports every tier in a stable, grep-able form (the
// CI dogfood steps parse disk-hit-rate and remote-hit-rate from it).
func printCacheStats(d *driver.Driver) {
	cs := d.CacheStats()
	rate := 0.0
	if probes := cs.DiskHits + cs.DiskMisses; probes > 0 {
		rate = 100 * float64(cs.DiskHits) / float64(probes)
	}
	remoteRate := 0.0
	if probes := cs.RemoteHits + cs.RemoteMisses; probes > 0 {
		remoteRate = 100 * float64(cs.RemoteHits) / float64(probes)
	}
	fmt.Fprintf(os.Stderr,
		"eclc: cache stats: mem-hits=%d mem-misses=%d disk-hits=%d disk-misses=%d disk-hit-rate=%.1f%% remote-hits=%d remote-misses=%d remote-hit-rate=%.1f%% remote-uploads=%d\n",
		cs.Hits, cs.Misses, cs.DiskHits, cs.DiskMisses, rate,
		cs.RemoteHits, cs.RemoteMisses, remoteRate, cs.RemoteUploads)
}

// cacheCmd implements `eclc cache stats|gc|clear`.
func cacheCmd(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: eclc cache stats|gc|clear [-cache-dir dir] [-max-bytes n] [-max-age d]")
		os.Exit(2)
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("eclc cache "+sub, flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "persistent cache directory (default $ECL_CACHE_DIR, else the user cache dir)")
	maxBytes := fs.String("max-bytes", "1G", "gc: trim the store to this size (accepts K/M/G suffixes, 0 = unbounded)")
	maxAge := fs.Duration("max-age", 30*24*time.Hour, "gc: evict entries unused for longer (0 = unbounded)")
	fs.Parse(args)

	store, err := cache.Open(*cacheDir)
	if err != nil {
		fatal(err)
	}
	switch sub {
	case "stats":
		bytes, entries, err := store.Size()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cache dir: %s\nentries:   %d\nsize:      %s\n", store.Dir(), entries, formatBytes(bytes))
		inv, err := store.PhaseInventory()
		if err != nil || len(inv) == 0 {
			break
		}
		// Per-phase table, in pipeline flow order (grep-able: one
		// phase=... line per populated phase), then the root entries
		// and session snapshots by name.
		for _, ph := range pipeline.AllPhases() {
			info, ok := inv[string(ph)]
			if !ok {
				continue
			}
			fmt.Printf("phase=%s entries=%d size=%s\n", ph, info.Entries, formatBytes(info.Bytes))
			delete(inv, string(ph))
		}
		for _, name := range slices.Sorted(maps.Keys(inv)) {
			info := inv[name]
			fmt.Printf("phase=%s entries=%d size=%s\n", name, info.Entries, formatBytes(info.Bytes))
		}
	case "gc":
		limit, err := parseBytes(*maxBytes)
		if err != nil {
			fatal(err)
		}
		res, err := store.GC(limit, *maxAge)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gc: evicted %d entries, %d blobs, freed %s; %d entries / %s live\n",
			res.EvictedEntries, res.EvictedBlobs, formatBytes(res.FreedBytes),
			res.LiveEntries, formatBytes(res.LiveBytes))
	case "clear":
		if err := store.Clear(); err != nil {
			fatal(err)
		}
		fmt.Printf("cleared %s\n", store.Dir())
	default:
		fatal(fmt.Errorf("unknown cache subcommand %q (want stats, gc, or clear)", sub))
	}
}

// parseBytes parses a byte count with an optional K/M/G suffix.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return n * mult, nil
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fG", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fK", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eclc:", err)
	os.Exit(1)
}
