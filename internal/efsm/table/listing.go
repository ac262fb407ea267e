package table

import (
	"fmt"
	"strings"
)

// listing renders the compiled table deterministically: layout tables,
// state dispatch entries, function entries, and a full disassembly.
// Everything is index- and offset-ordered, so identical programs
// produce byte-identical listings (the emit-table phase caches this).
func (p *Program) listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table %s: states=%d code=%d types=%d\n",
		p.name, len(p.stateEntry), len(p.code), len(p.types))
	fmt.Fprintf(&b, "arena: globals=%d total=%d stack=%d tags=%d sigs=%d\n",
		p.globalsSize, p.arenaSize, p.maxStack, p.numTags, p.numSigs)

	section := func(title string, slots []slotMeta) {
		if len(slots) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s:\n", title)
		for _, s := range slots {
			fmt.Fprintf(&b, "  %-16s @%-5d size=%-3d %s\n", s.name, s.off, s.size, p.typeName(s.typ))
		}
	}
	section("vars", p.vars)
	section("signal stores", p.sigs)

	ports := func(title string, ps []portMeta) {
		if len(ps) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s:\n", title)
		for i, pm := range ps {
			if pm.valOff >= 0 {
				fmt.Fprintf(&b, "  [%d] %-14s sig=%-3d val=@%d %s\n", i, pm.name, pm.sig, pm.valOff, p.typeName(pm.valTyp))
			} else {
				fmt.Fprintf(&b, "  [%d] %-14s sig=%-3d pure\n", i, pm.name, pm.sig)
			}
		}
	}
	ports("inputs", p.ins)
	ports("outputs", p.outs)

	if len(p.funcs) > 0 {
		fmt.Fprintf(&b, "funcs:\n")
		for i, fn := range p.funcs {
			fmt.Fprintf(&b, "  [%d] %-14s entry=%-5d frame=%-4d params=%d\n",
				i, fn.name, fn.entry, fn.frameSize, len(fn.params))
		}
	}

	fmt.Fprintf(&b, "states:\n")
	for i, entry := range p.stateEntry {
		fmt.Fprintf(&b, "  s%d entry=%d\n", p.stateID[i], entry)
	}

	fmt.Fprintf(&b, "code:\n")
	for pc, in := range p.code {
		name := "?"
		if int(in.op) < len(opNames) && opNames[in.op] != "" {
			name = opNames[in.op]
		}
		fmt.Fprintf(&b, "  %5d  %-9s a=%-6d b=%d", pc, name, in.a, in.b)
		if in.imm != 0 {
			fmt.Fprintf(&b, " imm=%#x", in.imm)
		}
		if in.cost != 0 {
			fmt.Fprintf(&b, " cost=%d", in.cost)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (p *Program) typeName(ti int32) string {
	if ti < 0 || int(ti) >= len(p.types) {
		return "?"
	}
	if t := p.types[ti].ct; t != nil {
		return t.String()
	}
	return "?"
}
