// Package trace is the strace substrate: it produces and parses the
// syscall logs the paper's Profiler consumes (Section 3.2, Figure 10).
//
// Record replays a function's behaviour spec under ptrace-style
// observation: every blocking segment surfaces as a syscall event with a
// start timestamp and duration, and the act of tracing inflates durations
// (the overhead the Profiler later rescales away). FormatLog/ParseLog
// round-trip the textual strace form, so the Profiler genuinely parses
// logs rather than peeking at the spec.
package trace

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/sim"
)

// Event is one recorded syscall.
type Event struct {
	// At is the syscall's start timestamp relative to function start, as
	// observed under tracing.
	At time.Duration
	// Syscall is the syscall name (select, read, write, sendto, ...).
	Syscall string
	// Path is the file argument for file syscalls ("" otherwise).
	Path string
	// Dur is the syscall's duration as observed under tracing.
	Dur time.Duration
}

// Kind maps the syscall back to a behaviour segment kind. Process
// management (clone/fork/vfork — the interpreter forking workers) and
// lock waits (futex — GIL token passing observed from outside) are
// off-CPU from the tracer's viewpoint, so they classify as Sleep; they
// are listed explicitly because the profiler's logs contain them and
// relying on the default would misread any future re-mapping.
func (e Event) Kind() behavior.SegmentKind {
	switch e.Syscall {
	case "select", "poll", "epoll_wait", "nanosleep":
		return behavior.Sleep
	case "clone", "fork", "vfork", "futex":
		return behavior.Sleep
	case "read", "write", "openat", "fsync":
		return behavior.DiskIO
	case "sendto", "recvfrom", "connect":
		return behavior.NetIO
	default:
		return behavior.Sleep
	}
}

// Overhead models how much tracing slows the subject down.
type Overhead struct {
	// CPUFactor inflates CPU spans (ptrace stops on syscall entry/exit
	// perturb the pipeline; small).
	CPUFactor float64
	// BlockFactor inflates recorded syscall durations (each traced
	// syscall takes two extra context switches; larger).
	BlockFactor float64
	// JitterPct adds +/- seeded noise per span.
	JitterPct float64
}

// DefaultOverhead is a realistic strace-like perturbation.
func DefaultOverhead() Overhead {
	return Overhead{CPUFactor: 1.03, BlockFactor: 1.22, JitterPct: 0.02}
}

// Recording is the result of one traced solo run.
type Recording struct {
	// Events are the observed syscalls in time order.
	Events []Event
	// Total is the traced run's wall time (inflated vs the untraced run).
	Total time.Duration
}

// Record replays spec solo under tracing overhead ov, deterministically
// for a given seed.
func Record(spec *behavior.Spec, ov Overhead, seed int64) *Recording {
	var rng sim.Rand
	rng.Seed(seed)
	jit := func(d time.Duration, f float64) time.Duration {
		x := float64(d) * f
		if ov.JitterPct > 0 {
			x *= 1 + ov.JitterPct*(rng.Float64()*2-1)
		}
		out := time.Duration(x)
		if out <= 0 {
			out = time.Nanosecond
		}
		return out
	}
	rec := &Recording{}
	var t time.Duration
	diskToggle := 0
	for _, seg := range spec.Segments {
		if !seg.Kind.Blocking() {
			t += jit(seg.Dur, ov.CPUFactor)
			continue
		}
		dur := jit(seg.Dur, ov.BlockFactor)
		ev := Event{At: t, Dur: dur}
		switch seg.Kind {
		case behavior.Sleep:
			ev.Syscall = "select"
		case behavior.DiskIO:
			if diskToggle%2 == 0 {
				ev.Syscall = "write"
			} else {
				ev.Syscall = "read"
			}
			diskToggle++
			if len(spec.Files) > 0 {
				ev.Path = spec.Files[0]
			} else {
				ev.Path = "/home/app/data"
			}
		case behavior.NetIO:
			ev.Syscall = "sendto"
		}
		rec.Events = append(rec.Events, ev)
		t += dur
	}
	rec.Total = t
	return rec
}

// FormatLog renders the recording in the textual form the Profiler parses,
// one syscall per line:
//
//	48.000000 select() = 0 <1001.000000>
//	1070.000000 write(</home/app/test.txt>) = 1 <0.042000>
//
// Timestamps and durations are in milliseconds, as in Figure 10.
func FormatLog(rec *Recording) string {
	var b strings.Builder
	for _, ev := range rec.Events {
		arg := ""
		if ev.Path != "" {
			arg = "<" + ev.Path + ">"
		}
		fmt.Fprintf(&b, "%.6f %s(%s) = 0 <%.6f>\n",
			float64(ev.At)/float64(time.Millisecond),
			ev.Syscall, arg,
			float64(ev.Dur)/float64(time.Millisecond))
	}
	return b.String()
}

// ParseLog parses FormatLog output back into events.
func ParseLog(log string) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(strings.NewReader(log))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		ev, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Event, error) {
	var ev Event
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return ev, fmt.Errorf("no timestamp separator in %q", line)
	}
	ms, err := strconv.ParseFloat(line[:sp], 64)
	if err != nil {
		return ev, fmt.Errorf("bad timestamp: %w", err)
	}
	ev.At = time.Duration(ms * float64(time.Millisecond))

	rest := line[sp+1:]
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return ev, fmt.Errorf("no syscall in %q", line)
	}
	ev.Syscall = rest[:open]
	closeIdx := strings.IndexByte(rest, ')')
	if closeIdx < open {
		return ev, fmt.Errorf("unterminated argument list in %q", line)
	}
	arg := rest[open+1 : closeIdx]
	if strings.HasPrefix(arg, "<") && strings.HasSuffix(arg, ">") {
		ev.Path = arg[1 : len(arg)-1]
	}

	lt := strings.LastIndexByte(rest, '<')
	gt := strings.LastIndexByte(rest, '>')
	if lt < 0 || gt < lt {
		return ev, fmt.Errorf("no duration in %q", line)
	}
	durMS, err := strconv.ParseFloat(rest[lt+1:gt], 64)
	if err != nil {
		return ev, fmt.Errorf("bad duration: %w", err)
	}
	ev.Dur = time.Duration(durMS * float64(time.Millisecond))
	return ev, nil
}
