package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
)

// edit is one seeded change to a generated design: the bound literal
// of one data loop (`for (t = 0; t < N; t++)`) in one module, replaced
// by another single digit. The loop lowers to a data function, so the
// edit moves the module's data fingerprint but not its structural one:
// the efsm phase replays and only that module's emits re-render. The
// literal keeps its width, so no other module's text or positions move.
type edit struct {
	Module string
	Offset int // byte offset of the literal in the source
	Old    string
	New    string
}

// apply returns src with the edit made.
func (e edit) apply(src string) string {
	return src[:e.Offset] + e.New + src[e.Offset+len(e.Old):]
}

func (e edit) String() string {
	return fmt.Sprintf("module %s: loop bound %s -> %s at byte %d", e.Module, e.Old, e.New, e.Offset)
}

var (
	moduleDecl = regexp.MustCompile(`(?m)^module (\w+) \(`)
	instCall   = regexp.MustCompile(`(?m)^\s+(\w+) \(`)
	loopBound  = regexp.MustCompile(`for \(t = 0; t < ([0-9]); t\+\+\)`)
)

// editSite is one data-loop bound a seeded edit may change.
type editSite struct {
	module string
	offset int
	old    string
}

// editSites lists the data-loop bounds of every module that no other
// module instantiates: editing an instantiated module would also
// change its callers' lowered bodies, and the op must rebuild exactly
// one module's artifacts.
func editSites(src string) []editSite {
	decls := moduleDecl.FindAllStringSubmatchIndex(src, -1)
	instantiated := map[string]bool{}
	for _, m := range instCall.FindAllStringSubmatch(src, -1) {
		instantiated[m[1]] = true
	}
	var sites []editSite
	for i, d := range decls {
		name := src[d[2]:d[3]]
		end := len(src)
		if i+1 < len(decls) {
			end = decls[i+1][0]
		}
		if instantiated[name] {
			continue
		}
		for _, b := range loopBound.FindAllStringSubmatchIndex(src[d[0]:end], -1) {
			sites = append(sites, editSite{module: name, offset: d[0] + b[2], old: src[d[0]+b[2] : d[0]+b[3]]})
		}
	}
	sort.Slice(sites, func(a, b int) bool { return sites[a].offset < sites[b].offset })
	return sites
}

// pickEdit draws op i's edit from the seed: a site, and a new bound in
// 2..9 that differs from the old one.
func pickEdit(src string, seed int64, i int) (edit, error) {
	sites := editSites(src)
	if len(sites) == 0 {
		return edit{}, fmt.Errorf("no editable data loop in the design")
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	s := sites[rng.Intn(len(sites))]
	old, _ := strconv.Atoi(s.old)
	v := 2 + rng.Intn(7)
	if v >= old {
		v++ // skip the old value: 2..9 without old
	}
	return edit{Module: s.module, Offset: s.offset, Old: s.old, New: strconv.Itoa(v)}, nil
}
