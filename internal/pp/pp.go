// Package pp implements the small C preprocessor subset that ECL
// sources use: object-like #define macros, #undef, #include of local
// files, and #ifdef/#ifndef/#else/#endif conditionals. The output is a
// single flattened source string suitable for lexing; line structure is
// preserved so diagnostics still point at sensible locations.
package pp

import (
	"fmt"
	"strings"

	"repro/internal/source"
)

// Resolver maps an include path to file contents. A nil Resolver makes
// every #include an error, which suits single-file compilation.
type Resolver func(path string) (string, error)

// MapResolver builds a Resolver from an in-memory path -> contents map.
func MapResolver(files map[string]string) Resolver {
	return func(path string) (string, error) {
		if s, ok := files[path]; ok {
			return s, nil
		}
		return "", fmt.Errorf("include %q not found", path)
	}
}

// Preprocessor expands one translation unit.
type Preprocessor struct {
	diags   *source.DiagList
	resolve Resolver
	macros  map[string]string
	depth   int
}

// maxIncludeDepth bounds nested includes to catch cycles.
const maxIncludeDepth = 16

// New returns a preprocessor reporting errors to diags and resolving
// includes through resolve (which may be nil).
func New(diags *source.DiagList, resolve Resolver) *Preprocessor {
	return &Preprocessor{
		diags:   diags,
		resolve: resolve,
		macros:  make(map[string]string),
	}
}

// Define adds a predefined object-like macro, as if by #define.
func (p *Preprocessor) Define(name, body string) { p.macros[name] = body }

// Macros returns a copy of the currently defined macro table.
func (p *Preprocessor) Macros() map[string]string {
	m := make(map[string]string, len(p.macros))
	for k, v := range p.macros {
		m[k] = v
	}
	return m
}

// Expand preprocesses the file and returns a new File holding the
// flattened, macro-expanded content under the same name.
func (p *Preprocessor) Expand(f *source.File) *source.File {
	out := p.expandString(f.Name, f.Content)
	return source.NewFile(f.Name, out)
}

func (p *Preprocessor) expandString(name, content string) string {
	var out strings.Builder
	lines := strings.Split(content, "\n")

	// condStack tracks nested conditionals: each entry records whether
	// the current branch is live and whether any branch so far was taken.
	type cond struct{ live, taken bool }
	var condStack []cond
	live := func() bool {
		for _, c := range condStack {
			if !c.live {
				return false
			}
		}
		return true
	}

	for i := 0; i < len(lines); i++ {
		line := lines[i]
		// Handle backslash line continuation for directives and macros.
		for strings.HasSuffix(strings.TrimRight(line, " \t"), "\\") && i+1 < len(lines) {
			line = strings.TrimSuffix(strings.TrimRight(line, " \t"), "\\") + " " + lines[i+1]
			i++
			out.WriteByte('\n') // keep line count roughly aligned
		}
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			if live() {
				expanded, ok := p.substitute(line)
				if !ok {
					p.diags.Errorf(source.Pos{}, "%s: macro expansion of one line exceeds %d bytes", name, maxExpansion)
				}
				out.WriteString(expanded)
			}
			out.WriteByte('\n')
			continue
		}

		directive, rest := splitDirective(trimmed)
		switch directive {
		case "define":
			if live() {
				nm, body := splitFirstWord(rest)
				switch {
				case nm == "":
					p.diags.Errorf(source.Pos{}, "%s: #define with no macro name", name)
				case strings.HasPrefix(body, "("):
					// splitFirstWord leaves body starting at '(' only when
					// it directly abuts the name: a function-like macro.
					p.diags.Errorf(source.Pos{}, "%s: function-like macro %q not supported", name, nm)
				default:
					p.macros[nm] = strings.TrimSpace(body)
				}
			}
		case "undef":
			if live() {
				nm, _ := splitFirstWord(rest)
				delete(p.macros, nm)
			}
		case "include":
			if live() {
				p.handleInclude(name, rest, &out)
			}
		case "ifdef", "ifndef":
			nm, _ := splitFirstWord(rest)
			_, defined := p.macros[nm]
			want := defined
			if directive == "ifndef" {
				want = !defined
			}
			condStack = append(condStack, cond{live: want, taken: want})
		case "else":
			if len(condStack) == 0 {
				p.diags.Errorf(source.Pos{}, "%s: #else without matching #ifdef", name)
			} else {
				c := &condStack[len(condStack)-1]
				c.live = !c.taken
				c.taken = true
			}
		case "endif":
			if len(condStack) == 0 {
				p.diags.Errorf(source.Pos{}, "%s: #endif without matching #ifdef", name)
			} else {
				condStack = condStack[:len(condStack)-1]
			}
		case "pragma":
			// Ignored.
		default:
			p.diags.Errorf(source.Pos{}, "%s: unsupported preprocessor directive #%s", name, directive)
		}
		out.WriteByte('\n') // directives become blank lines
	}
	if len(condStack) != 0 {
		p.diags.Errorf(source.Pos{}, "%s: unterminated #ifdef", name)
	}
	return out.String()
}

func (p *Preprocessor) handleInclude(from, rest string, out *strings.Builder) {
	rest = strings.TrimSpace(rest)
	var path string
	switch {
	case strings.HasPrefix(rest, "\""):
		end := strings.Index(rest[1:], "\"")
		if end < 0 {
			p.diags.Errorf(source.Pos{}, "%s: malformed #include", from)
			return
		}
		path = rest[1 : 1+end]
	case strings.HasPrefix(rest, "<"):
		end := strings.Index(rest, ">")
		if end < 0 {
			p.diags.Errorf(source.Pos{}, "%s: malformed #include", from)
			return
		}
		path = rest[1:end]
	default:
		p.diags.Errorf(source.Pos{}, "%s: malformed #include", from)
		return
	}
	if p.resolve == nil {
		p.diags.Errorf(source.Pos{}, "%s: cannot resolve #include %q (no resolver)", from, path)
		return
	}
	if p.depth >= maxIncludeDepth {
		p.diags.Errorf(source.Pos{}, "%s: include nesting too deep at %q", from, path)
		return
	}
	content, err := p.resolve(path)
	if err != nil {
		p.diags.Errorf(source.Pos{}, "%s: %v", from, err)
		return
	}
	p.depth++
	out.WriteString(p.expandString(path, content))
	p.depth--
}

// maxExpansion bounds the macro expansion of one line. Replacement is
// iterated, so a macro whose body names itself k times multiplies the
// line by k every round.
const maxExpansion = 1 << 16

// substitute performs iterated object-macro replacement on one line,
// respecting identifier boundaries and skipping string/char literals
// and comments. It reports false, leaving the line unexpanded, when
// the expansion outgrows maxExpansion.
func (p *Preprocessor) substitute(line string) (string, bool) {
	const maxRounds = 16
	orig := line
	for round := 0; round < maxRounds; round++ {
		replaced, changed := p.substituteOnce(line)
		if len(replaced) > maxExpansion {
			return orig, false
		}
		if !changed {
			return replaced, true
		}
		line = replaced
	}
	return line, true
}

func (p *Preprocessor) substituteOnce(line string) (string, bool) {
	var out strings.Builder
	changed := false
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == '"' || c == '\'':
			quote := c
			out.WriteByte(c)
			i++
			for i < len(line) && line[i] != quote {
				if line[i] == '\\' && i+1 < len(line) {
					out.WriteByte(line[i])
					i++
				}
				out.WriteByte(line[i])
				i++
			}
			if i < len(line) {
				out.WriteByte(line[i])
				i++
			}
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			out.WriteString(line[i:])
			i = len(line)
		case isIdentStart(c):
			j := i + 1
			for j < len(line) && isIdentPart(line[j]) {
				j++
			}
			word := line[i:j]
			if body, ok := p.macros[word]; ok {
				out.WriteString(body)
				changed = true
				if out.Len() > maxExpansion {
					return out.String(), true // the caller gives up
				}
			} else {
				out.WriteString(word)
			}
			i = j
		default:
			out.WriteByte(c)
			i++
		}
	}
	return out.String(), changed
}

func isIdentStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || '0' <= c && c <= '9' }

func splitDirective(line string) (directive, rest string) {
	s := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	return splitFirstWord(s)
}

func splitFirstWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' || s[i] == '(' && i > 0 {
			return s[:i], s[i:]
		}
	}
	return s, ""
}
