// Package semperos is a Go reproduction of "SemperOS: A Distributed
// Capability System" (Hille, Asmussen, Bhatotia, Härtig — USENIX ATC 2019).
//
// SemperOS is a multikernel microkernel OS for large non-cache-coherent
// manycore machines: several microkernels, each owning a group of
// processing elements (PEs), cooperate through inter-kernel calls to
// provide one system-wide distributed capability space. This package is the
// public facade over the full implementation:
//
//   - internal/sim — deterministic discrete-event simulation engine
//   - internal/noc — 2D-mesh network-on-chip
//   - internal/dtu — per-PE data transfer units (NoC-level isolation)
//   - internal/ddl — distributed data lookup (capability addressing)
//   - internal/cap — capability trees / mapping database
//   - internal/core — the SemperOS multikernel (the paper's contribution)
//   - internal/m3 — single-kernel M3 baseline
//   - internal/m3fs — the in-memory filesystem service
//   - internal/trace, internal/workload, internal/bench — evaluation
//
// A minimal session looks like:
//
//	sys := semperos.MustNew(semperos.Config{Kernels: 2, UserPEs: 4})
//	defer sys.Close()
//	owner, _ := sys.Spawn("owner", func(v *semperos.VPE, p *semperos.Proc) {
//	    sel, _ := v.AllocMem(p, 4096, semperos.PermRW)
//	    // ... share sel with other VPEs, revoke it later ...
//	})
//	sys.Run()
//
// See the examples directory for complete programs and DESIGN.md for the
// architecture and experiment index.
package semperos

import (
	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// Re-exported core types: the public API of the system.
type (
	// Config describes a SemperOS machine (kernels, user PEs, memory).
	Config = core.Config
	// System is a booted machine.
	System = core.System
	// Kernel is one SemperOS microkernel.
	Kernel = core.Kernel
	// VPE is a virtual PE: the unit of execution, owning a capability space.
	VPE = core.VPE
	// Program is the code a VPE runs.
	Program = core.Program
	// Proc is a cooperative simulation process.
	Proc = sim.Proc
	// Session is a client connection to a service.
	Session = core.Session
	// ServiceHandlers are the callbacks a service implements.
	ServiceHandlers = core.ServiceHandlers
	// SvcResult is a service's answer to a kernel query.
	SvcResult = core.SvcResult
	// ExchangeQuery asks a VPE for consent to a capability exchange.
	ExchangeQuery = core.ExchangeQuery
	// ExchangeAnswer is the VPE's verdict.
	ExchangeAnswer = core.ExchangeAnswer
	// Selector names a capability within a VPE's capability space.
	Selector = cap.Selector
	// Perm is a permission bit set.
	Perm = dtu.Perm
	// CostModel holds the calibrated cycle costs.
	CostModel = core.CostModel
	// IKCBatching configures the unified inter-kernel transport: which
	// operation families batch their requests and replies into
	// per-destination envelopes. When queues flush is fixed.
	IKCBatching = core.IKCBatching
	// Errno is the system's error code space.
	Errno = core.Errno
	// Time is a point in simulated time (cycles at 2 GHz).
	Time = sim.Time
	// Duration is a span of simulated time (cycles).
	Duration = sim.Duration
)

// Permission bits.
const (
	PermR  = dtu.PermR
	PermW  = dtu.PermW
	PermX  = dtu.PermX
	PermRW = dtu.PermRW
)

// Architectural limits (paper §5.1).
const (
	MaxKernels      = core.MaxKernels
	MaxPEsPerKernel = core.MaxPEsPerKernel
	MaxInflight     = core.MaxInflight
)

// Common error codes.
const (
	OK              = core.OK
	ErrNoSuchCap    = core.ErrNoSuchCap
	ErrDenied       = core.ErrDenied
	ErrInRevocation = core.ErrInRevocation
	ErrVPEGone      = core.ErrVPEGone
	ErrNoService    = core.ErrNoService
)

// New builds and boots a machine.
func New(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// MustNew is New for constant configurations; it panics on error.
func MustNew(cfg Config) *System { return core.MustNew(cfg) }

// DefaultCostModel returns the calibrated cost model used by the
// experiments (see DESIGN.md for the calibration targets).
func DefaultCostModel() CostModel { return core.DefaultCostModel() }
