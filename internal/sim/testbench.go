package sim

import (
	"fmt"

	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/paperex"
)

// slotDriver steps a system through StepSlots with one reused set of
// slot vectors; the testbenches resolve their ports by name once.
type slotDriver struct {
	sys     System
	nIn     int
	present []bool
	in, out []cval.Value
	// err records the first input that could not be resolved.
	err error
}

func newSlotDriver(sys System) *slotDriver {
	nIn, nOut := len(sys.Inputs()), len(sys.Outputs())
	return &slotDriver{
		sys:     sys,
		nIn:     nIn,
		present: make([]bool, nIn+nOut),
		in:      make([]cval.Value, nIn),
		out:     make([]cval.Value, nOut),
	}
}

// input resolves a design input to its slot. A missing one resolves
// to -1 and is recorded in d.err.
func (d *slotDriver) input(name string) int {
	for i, sig := range d.sys.Inputs() {
		if sig.Name == name {
			return i
		}
	}
	if d.err == nil {
		d.err = fmt.Errorf("no input signal %q", name)
	}
	return -1
}

// valued resolves a valued design input like input and binds a value
// of type t to its slot, which the caller sets before each tick that
// presents it.
func (d *slotDriver) valued(name string, t ctypes.Type) (int, cval.Value) {
	i, v := d.input(name), cval.New(t)
	if i >= 0 {
		d.in[i] = v
	}
	return i, v
}

// output resolves a design output to its slot, -1 when there is none.
func (d *slotDriver) output(name string) int {
	for j, sig := range d.sys.Outputs() {
		if sig.Name == name {
			return j
		}
	}
	return -1
}

// step runs one tick with exactly the given input slots present.
func (d *slotDriver) step(inputs ...int) error {
	for i := 0; i < d.nIn; i++ {
		d.present[i] = false
	}
	for _, i := range inputs {
		d.present[i] = true
	}
	return d.sys.StepSlots(d.present, d.in, d.out)
}

// emitted reports whether output slot j was emitted in the last tick.
func (d *slotDriver) emitted(j int) bool { return j >= 0 && d.present[d.nIn+j] }

// StackResult reports a protocol-stack testbench run.
type StackResult struct {
	Packets     int
	GoodPackets int
	AddrMatches int
	Ticks       int64
}

// RunStack drives the paper's Table 1 stack workload: packets
// byte-per-tick with a short inter-packet gap (so the header scan can
// finish), every 4th packet corrupted, and a reset after packet 250.
// It checks that addr_match fires exactly for the good packets.
func RunStack(sys System, packets int) (*StackResult, error) {
	res := &StackResult{Packets: packets}
	d := newSlotDriver(sys)
	inByte, byteVal := d.valued("in_byte", ctypes.UChar)
	reset := d.input("reset")
	match := d.output("addr_match")
	if d.err != nil {
		return nil, d.err
	}
	// Boot tick.
	if err := d.step(); err != nil {
		return nil, err
	}
	res.Ticks++
	for p := 0; p < packets; p++ {
		good := p%4 != 3
		if good {
			res.GoodPackets++
		}
		pkt := paperex.MakePacket(good)
		for i := 0; i < paperex.PktSize; i++ {
			byteVal.SetInt(int64(pkt[i]))
			if err := d.step(inByte); err != nil {
				return nil, fmt.Errorf("packet %d byte %d: %w", p, i, err)
			}
			res.Ticks++
			if d.emitted(match) {
				res.AddrMatches++
			}
		}
		// Inter-packet gap: the header scan takes HDRSIZE instants.
		for i := 0; i < paperex.HdrSize+2; i++ {
			if err := d.step(); err != nil {
				return nil, fmt.Errorf("packet %d gap: %w", p, err)
			}
			res.Ticks++
			if d.emitted(match) {
				res.AddrMatches++
			}
		}
		if p == packets/2 {
			if err := d.step(reset); err != nil {
				return nil, err
			}
			res.Ticks++
		}
	}
	return res, nil
}

// BufferResult reports an audio-buffer testbench run.
type BufferResult struct {
	Samples    int
	SpkSamples int
	LowWaters  int
	HighWaters int
	Ticks      int64
}

// RunBuffer drives the voice-mail-pager scenario: record a message
// (one mic sample every other tick), stop, then play it back (the
// environment answers each rd_req with a sample on the next tick),
// then stop. Messages repeats the record/playback cycle.
func RunBuffer(sys System, messages, samplesPerMessage int) (*BufferResult, error) {
	res := &BufferResult{}
	d := newSlotDriver(sys)
	recBtn, playBtn, stopBtn := d.input("rec_btn"), d.input("play_btn"), d.input("stop_btn")
	mic, micVal := d.valued("mic_sample", ctypes.UChar)
	rdData, rdVal := d.valued("rd_data", ctypes.UChar)
	spk, rdReq := d.output("spk_sample"), d.output("rd_req")
	lowWater, highWater := d.output("low_water"), d.output("high_water")
	if d.err != nil {
		return nil, d.err
	}
	step := func(inputs ...int) error {
		if err := d.step(inputs...); err != nil {
			return err
		}
		res.Ticks++
		if d.emitted(spk) {
			res.SpkSamples++
		}
		if d.emitted(lowWater) {
			res.LowWaters++
		}
		if d.emitted(highWater) {
			res.HighWaters++
		}
		return nil
	}
	if err := step(); err != nil {
		return nil, err
	}
	for msg := 0; msg < messages; msg++ {
		if err := step(recBtn); err != nil {
			return nil, err
		}
		for i := 0; i < samplesPerMessage; i++ {
			var err error
			if i%2 == 0 {
				micVal.SetInt(int64(40 + i%80))
				res.Samples++
				err = step(mic)
			} else {
				err = step()
			}
			if err != nil {
				return nil, err
			}
		}
		if err := step(stopBtn); err != nil {
			return nil, err
		}
		// Playback: answer rd_req with a sample next tick.
		if err := step(playBtn); err != nil {
			return nil, err
		}
		pending := d.emitted(rdReq)
		for i := 0; i < samplesPerMessage*2; i++ {
			var err error
			if pending {
				rdVal.SetInt(int64(40 + i%80))
				err = step(rdData)
			} else {
				err = step()
			}
			if err != nil {
				return nil, err
			}
			pending = d.emitted(rdReq)
		}
		if err := step(stopBtn); err != nil {
			return nil, err
		}
		// Idle gap between messages.
		for i := 0; i < 4; i++ {
			if err := step(); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
