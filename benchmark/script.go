package main

// The capstorm script: what every simulated client does in every epoch. It
// is a pure function of (shape, seed); the machine under test receives only
// the script, never the seed.
//
// One epoch of one client (VPE) is
//
//	alloc root | barrier | obtain 6 peers' roots, derive 3 children of each |
//	derive 2 children of the own root, delegate one to each of 2 peers |
//	barrier | revoke root
//
// Half of the obtain sources and half of the delegate receivers live in the
// client's own PE group, half in another one. Every cross-kernel edge of the
// resulting trees hangs off a capability whose own parent is on the same
// kernel (root -> obtained, own derive -> delegated): see the README for why
// chains that hop kernel A -> B -> A are left to a later issue.

// stormShape sizes a capstorm machine and script.
type stormShape struct {
	Kernels   int // PE groups
	PerGroup  int // clients per group; clients = Kernels*PerGroup
	Epochs    int
	Obtains   int // per client and epoch, half local, half spanning
	PerObtain int // children derived from each obtained capability
	Delegates int // own derives delegated away, half local, half spanning
}

// paperStorm is the benchmark's shape: 8 kernels, 64 closed-loop clients.
var paperStorm = stormShape{Kernels: 8, PerGroup: 8, Epochs: 32, Obtains: 6, PerObtain: 3, Delegates: 2}

func (s stormShape) clients() int { return s.Kernels * s.PerGroup }

// opsPerClientEpoch counts the capability operations (obtain, derive,
// delegate, revoke) one client issues in one epoch.
func (s stormShape) opsPerClientEpoch() int {
	return s.Obtains + s.Obtains*s.PerObtain + 2*s.Delegates + 1
}

func (s stormShape) ops() int { return s.clients() * s.Epochs * s.opsPerClientEpoch() }

// opsByKind splits opsPerClientEpoch by operation kind.
func (s stormShape) opsByKind() (n [numOpKinds]int) {
	n[opObtainLocal], n[opObtainSpan] = s.Obtains/2, s.Obtains-s.Obtains/2
	n[opDelegateLocal], n[opDelegateSpan] = s.Delegates/2, s.Delegates-s.Delegates/2
	n[opDerive] = s.Obtains*s.PerObtain + s.Delegates
	n[opRevoke] = 1
	return n
}

// clientEpoch lists the peers (client indices) one client addresses in one
// epoch. Client c belongs to group c / PerGroup.
type clientEpoch struct {
	ObtainFrom []int
	DelegateTo []int
}

// stormScript is the generated input: Steps[epoch][client].
type stormScript struct {
	Shape stormShape
	Steps [][]clientEpoch
}

// genStorm draws the script for a seed.
func genStorm(shape stormShape, seed uint64) *stormScript {
	r := newRNG(seed)
	sc := &stormScript{Shape: shape, Steps: make([][]clientEpoch, shape.Epochs)}
	for e := range sc.Steps {
		sc.Steps[e] = make([]clientEpoch, shape.clients())
		for c := range sc.Steps[e] {
			sc.Steps[e][c] = clientEpoch{
				ObtainFrom: pickPeers(r, shape, c, shape.Obtains),
				DelegateTo: pickPeers(r, shape, c, shape.Delegates),
			}
		}
	}
	return sc
}

// pickPeers draws n distinct peers of client c: the first half from c's own
// group, the rest from other groups.
func pickPeers(r *rng, shape stormShape, c, n int) []int {
	group := c / shape.PerGroup
	local := n / 2
	out := make([]int, 0, n)
	taken := map[int]bool{c: true}
	for len(out) < n {
		var peer int
		if len(out) < local {
			peer = group*shape.PerGroup + r.intn(shape.PerGroup)
		} else {
			g := r.intn(shape.Kernels - 1)
			if g >= group {
				g++
			}
			peer = g*shape.PerGroup + r.intn(shape.PerGroup)
		}
		if !taken[peer] {
			taken[peer] = true
			out = append(out, peer)
		}
	}
	return out
}
