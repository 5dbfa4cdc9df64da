// Package m3 provides the M3 baseline system used for comparison in the
// paper's Table 3 and Figure 4: the single-kernel HW/SW co-designed
// capability system that SemperOS extends (Asmussen et al., ASPLOS'16).
//
// Architecturally, M3 is SemperOS with exactly one kernel and with a
// pointer-linked mapping database: capabilities reference their parents and
// children via plain pointers instead of globally valid DDL keys, so
// capability operations skip the DDL-decoding step. The paper quantifies
// that difference as a 10.7% (exchange) / 40.3% (revoke) overhead of
// SemperOS over M3 in the group-local case.
//
// This package reuses the core machinery with a single kernel and an M3
// cost model (no DDL decode, slightly cheaper tree edits). It refuses
// multi-kernel configurations: M3 has exactly one kernel PE, which is its
// scalability limitation and the paper's motivation.
package m3

import (
	"errors"

	"repro/internal/core"
	"repro/internal/sim"
)

// Config describes an M3 machine: its single kernel, its user PEs and one
// DRAM PE of the default capacity.
type Config struct {
	// UserPEs is the number of user PEs controlled by the single kernel.
	UserPEs int
	// Engine, when non-nil, is a fresh (or Reset) simulation engine to build
	// on instead of a new one; see core.Config.Engine.
	Engine *sim.Engine
}

// CostModel returns the M3 kernel cost model: identical to SemperOS except
// that capability references are plain pointers — no DDL decoding — and
// tree edits are marginally cheaper (no key materialization).
func CostModel() core.CostModel {
	c := core.DefaultCostModel()
	c.DDLDecode = 0
	c.RevokeMark = c.RevokeMark * 3 / 4
	c.RevokeDelete = c.RevokeDelete * 4 / 5
	return c
}

// System is an M3 machine: a thin wrapper around a single-kernel core
// system with the M3 cost model.
type System struct {
	*core.System
}

// New builds an M3 machine.
func New(cfg Config) (*System, error) {
	if cfg.UserPEs <= 0 {
		return nil, errors.New("m3: at least one user PE is required")
	}
	if cfg.UserPEs > core.MaxPEsPerKernel {
		return nil, errors.New("m3: user PE count exceeds the single kernel's limit")
	}
	cost := CostModel()
	s, err := core.NewSystem(core.Config{
		Kernels: 1,
		UserPEs: cfg.UserPEs,
		Cost:    &cost,
		Engine:  cfg.Engine,
	})
	if err != nil {
		return nil, err
	}
	return &System{System: s}, nil
}

// MustNew is New for constant configurations.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Kernel returns the single M3 kernel.
func (s *System) Kernel() *core.Kernel { return s.System.Kernel(0) }
