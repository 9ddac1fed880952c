// Package fuzz implements the paper's two dynamic baselines (§5.1):
//
//   - Manual UI fuzzing: a human explores the whole UI, signs up and logs
//     in, handles custom widgets, and follows deep links — but cannot
//     trigger timers, server pushes, or actions with real-world side
//     effects (purchases, job applications).
//   - Automatic UI fuzzing (PUMA-like): a UI-automation tool iterates over
//     standard clickable elements only; it cannot log in, and it stops
//     exploring entirely when the app gates progress behind custom-drawn
//     UI it does not recognize.
//
// Both drive the interpreter against the simulated network, producing the
// traffic traces the evaluation compares against Extractocol's output.
package fuzz

import (
	"fmt"

	"extractocol/internal/httpsim"
	"extractocol/internal/ir"
	"extractocol/internal/runtime"
)

// Mode selects the baseline.
type Mode int

// Fuzzing modes.
const (
	// Manual models a human tester with credentials.
	Manual Mode = iota
	// Auto models a PUMA-style UI automation tool.
	Auto
)

// String names the mode.
func (m Mode) String() string {
	if m == Auto {
		return "auto"
	}
	return "manual"
}

// GateLabel marks a custom-UI entry point that blocks automatic
// exploration of the whole app (a custom-drawn first screen).
const GateLabel = "ui_gate"

// Result summarizes one fuzzing run.
type Result struct {
	Mode    Mode
	Fired   []string // entry points triggered, in order
	Skipped []string // entry points out of the mode's reach
	// Aborted is set when automatic fuzzing hit a custom-UI gate and
	// stopped exploring.
	Aborted bool
	// Errors records per-entry interpreter failures (the run continues).
	Errors []string
}

// reachable reports whether the mode can trigger the event kind.
func reachable(mode Mode, k ir.EventKind) bool {
	switch mode {
	case Manual:
		switch k {
		case ir.EventCreate, ir.EventClick, ir.EventCustomUI, ir.EventLogin,
			ir.EventLocation, ir.EventIntent:
			return true
		}
		return false
	default: // Auto
		switch k {
		case ir.EventCreate, ir.EventClick:
			return true
		}
		return false
	}
}

// Run fuzzes the app in the given mode, recording traffic into net.
func Run(p *ir.Program, net *httpsim.Network, mode Mode) (*Result, error) {
	res := &Result{Mode: mode}
	if mode == Auto {
		for _, ep := range p.Manifest.EntryPoints {
			if ep.Kind == ir.EventCustomUI && ep.Label == GateLabel {
				// PUMA cannot recognize the custom first screen: it stops
				// before generating any traffic.
				res.Aborted = true
				for _, e := range p.Manifest.EntryPoints {
					res.Skipped = append(res.Skipped, e.Method)
				}
				return res, nil
			}
		}
	}
	vm := runtime.New(p, net)
	for _, ep := range p.Manifest.EntryPoints {
		if !reachable(mode, ep.Kind) {
			res.Skipped = append(res.Skipped, ep.Method)
			continue
		}
		if err := vm.Fire(ep); err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", ep.Method, err))
			continue
		}
		res.Fired = append(res.Fired, ep.Method)
	}
	return res, nil
}
