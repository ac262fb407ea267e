// Package simd is the multi-tenant execution daemon behind the
// eclsimd binary, and the client eclsim -connect drives it with: many
// concurrently stepping exec.Session machines served over HTTP, with
// the canonical trace Event encoding as the wire format — a daemon
// conversation transcribed as JSONL is literally a replayable trace.
//
// The protocol (all JSON unless noted):
//
//	POST   /v1/machines            open (OpenRequest -> MachineInfo)
//	GET    /v1/machines            list machine ids
//	GET    /v1/machines/{id}       MachineInfo (evicted sessions included)
//	DELETE /v1/machines/{id}       close
//	POST   /v1/machines/{id}/step  batched stepping: JSONL trace events
//	                               in (inputs read), JSONL events out
//	POST   /v1/machines/{id}/fork  fork (ForkRequest -> child MachineInfo)
//	POST   /v1/machines/{id}/reset rewind to boot state
//	GET    /healthz                liveness
//	GET    /statsz                 Stats counters
//
// Batched stepping is the centerpiece: at scale the round trip, not
// the step, dominates, so a client POSTs N input instants (one Event
// per line, only the "in" field read) and receives the N executed
// instants back in one exchange. A step or decode error mid-batch
// terminates the response with a single {"error": ...} line after the
// events that did execute.
//
// Sessions idle past the daemon's TTL (or squeezed out by the
// max-sessions bound) are evicted: serialized as exec.SnapshotBlob
// entries in the content-addressed store and transparently revived —
// recompile through the tiered cache, restore, continue — on next
// touch.
package simd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/exec"
)

// OpenRequest asks the daemon to compile a design and open a machine
// over it.
type OpenRequest struct {
	// ID requests a specific machine id ("" lets the daemon allocate).
	ID string `json:"id,omitempty"`
	// Path names a daemon-local source file; Source carries inline ECL
	// text (at least one must be set — Source wins, with Path as its
	// display name).
	Path   string `json:"path,omitempty"`
	Source string `json:"source,omitempty"`
	// Module selects the module (default: last in the file).
	Module string `json:"module,omitempty"`
	// Backend names the execution backend (default: the daemon's).
	Backend string `json:"backend,omitempty"`
}

// SignalInfo describes one interface signal, with enough type shape
// (byte size) for a client to encode script values without compiling
// the design locally.
type SignalInfo struct {
	Name string `json:"name"`
	Pure bool   `json:"pure,omitempty"`
	// Type is the C type's display name ("" for pure signals).
	Type string `json:"type,omitempty"`
	// Size is the value width in bytes (0 for pure signals).
	Size int `json:"size,omitempty"`
}

// MachineInfo describes one daemon machine.
type MachineInfo struct {
	ID         string `json:"id"`
	Module     string `json:"module"`
	Backend    string `json:"backend"`
	Instant    int    `json:"instant"`
	Terminated bool   `json:"terminated,omitempty"`
	// Evicted marks a session currently persisted as a snapshot blob;
	// it revives transparently on the next step/fork/reset.
	Evicted bool         `json:"evicted,omitempty"`
	Inputs  []SignalInfo `json:"inputs,omitempty"`
	Outputs []SignalInfo `json:"outputs,omitempty"`
}

// ForkRequest asks for a fork of an existing machine.
type ForkRequest struct {
	// ID requests a specific id for the child ("" allocates one).
	ID string `json:"id,omitempty"`
}

// Stats is the /statsz payload, mirroring eclcached's counters: how
// the fleet is using this daemon.
type Stats struct {
	// Resident counts machines currently live in memory; Evicted the
	// sessions parked as snapshot blobs.
	Resident int `json:"resident"`
	Evicted  int `json:"evicted"`

	Opens  int64 `json:"opens"`
	Closes int64 `json:"closes"`
	Forks  int64 `json:"forks"`
	Resets int64 `json:"resets"`
	// Steps counts executed instants, Batches step requests — their
	// ratio is the batching factor the fleet actually achieves.
	Steps   int64 `json:"steps"`
	Batches int64 `json:"batches"`

	Evictions int64 `json:"evictions"`
	Revivals  int64 `json:"revivals"`
	Errors    int64 `json:"errors"`
}

// wireEvent is one JSONL line of a step exchange as a client reads it:
// a canonical trace event, or (as the final line of a failed batch) a
// stepError report.
type wireEvent struct {
	exec.Event
	Error string `json:"error,omitempty"`
}

// stepError is the line that ends a failed step batch. It carries no
// event fields: the instant that failed is named in the message.
type stepError struct {
	Error string `json:"error"`
}

// lineReader yields the non-blank lines of a JSONL body, trimmed of
// surrounding white space. A line stays in bufio's buffer unless it
// outgrows it, so it is valid only until the next call.
type lineReader struct {
	br   *bufio.Reader
	long []byte
	eof  bool
}

// next returns the next non-blank line, io.EOF after the last one, or
// the first read error.
func (lr *lineReader) next() ([]byte, error) {
	for !lr.eof {
		line, err := lr.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			lr.long = append(lr.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = lr.br.ReadSlice('\n')
				lr.long = append(lr.long, line...)
			}
			line = lr.long
		}
		switch {
		case err == io.EOF:
			lr.eof = true
		case err != nil:
			return nil, err
		}
		if s := bytes.TrimSpace(line); len(s) > 0 {
			return s, nil
		}
	}
	return nil, io.EOF
}

// signalInfos converts exec signal descriptors to their wire form.
func signalInfos(sigs []exec.Signal) []SignalInfo {
	out := make([]SignalInfo, 0, len(sigs))
	for _, s := range sigs {
		info := SignalInfo{Name: s.Name, Pure: s.Pure}
		if s.Type != nil {
			info.Type = s.Type.String()
			info.Size = s.Type.Size()
		}
		out = append(out, info)
	}
	return out
}

// ParseScriptInstant parses one eclsim script line (present inputs,
// values as name=int, '#' comments) into a wire input map against a
// machine's signal descriptors, encoding values in the canonical trace
// encoding — the client-side twin of exec.ParseScriptLine for machines
// that live on a daemon.
func ParseScriptInstant(inputs []SignalInfo, line string) (map[string]string, error) {
	if idx := strings.IndexByte(line, '#'); idx >= 0 {
		line = line[:idx]
	}
	byName := make(map[string]SignalInfo, len(inputs))
	names := make([]string, 0, len(inputs))
	for _, s := range inputs {
		byName[s.Name] = s
		names = append(names, s.Name)
	}
	in := map[string]string{}
	for _, tok := range strings.Fields(line) {
		name, valText, hasVal := strings.Cut(tok, "=")
		sig, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown input %q (module inputs: %s)", name, strings.Join(names, ", "))
		}
		if !hasVal {
			in[name] = ""
			continue
		}
		if sig.Pure {
			return nil, fmt.Errorf("input %s is pure and carries no value", name)
		}
		x, err := strconv.ParseInt(valText, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q for input %s", valText, name)
		}
		in[name] = EncodeIntValue(sig.Size, x)
	}
	return in, nil
}

// EncodeIntValue renders an integer in the canonical trace value
// encoding for a signal of the given byte size: "0x…" big-endian
// two's-complement, exactly what cval.FromInt stores.
func EncodeIntValue(size int, x int64) string {
	b := make([]byte, size)
	u := uint64(x)
	for i := size - 1; i >= 0; i-- {
		b[i] = byte(u)
		u >>= 8
	}
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 2, 2+2*size)
	out[0], out[1] = '0', 'x'
	for _, c := range b {
		out = append(out, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return string(out)
}
