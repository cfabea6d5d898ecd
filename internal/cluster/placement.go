package cluster

import (
	"fmt"
	"strings"
)

// HostLoad is the per-host snapshot a placement policy sees: static
// capacity plus the orchestrator's admission bookkeeping. It carries no
// model internals — policies are deliberately restricted to
// coarse-grained cluster state so every policy is trivially
// deterministic.
type HostLoad struct {
	// ID is the host's cluster-wide index.
	ID int
	// PCPUs is the host's physical core count.
	PCPUs int
	// AdmittedVCPUs is the VCPU width currently admitted (resident VMs,
	// including ones still draining away).
	AdmittedVCPUs int
	// Fits reports whether the host holds a free parked slot at least as
	// wide as the VM being placed.
	Fits bool
}

// PlacementPolicy routes one VM arrival to a host. Place returns the
// chosen host's ID, or -1 to queue the VM until capacity frees up.
// hosts is ordered by ID and identical for every policy, so a policy is
// a pure function of the snapshot (any internal state — a round-robin
// cursor — must depend only on its own past decisions).
type PlacementPolicy interface {
	Name() string
	Place(vcpus int, hosts []HostLoad) int
}

// policyFor resolves a placement policy name (case-insensitive).
func policyFor(name string) (PlacementPolicy, error) {
	switch strings.ToLower(name) {
	case "round-robin", "rr":
		return &roundRobin{}, nil
	case "least-loaded", "ll":
		return leastLoaded{}, nil
	case "first-fit", "ff":
		return firstFit{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown placement policy %q (have round-robin, least-loaded, first-fit)", name)
	}
}

// roundRobin cycles through hosts, continuing after the last host it
// placed on; VMs spread evenly regardless of width.
type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Place(vcpus int, hosts []HostLoad) int {
	n := len(hosts)
	if n == 0 {
		return -1
	}
	for k := 0; k < n; k++ {
		h := hosts[(r.next+k)%n]
		if h.Fits {
			r.next = (h.ID + 1) % n
			return h.ID
		}
	}
	return -1
}

// leastLoaded picks the fitting host with the lowest admitted-VCPUs to
// PCPUs ratio, lowest ID on ties.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Place(vcpus int, hosts []HostLoad) int {
	best, bestLoad := -1, 0.0
	for _, h := range hosts {
		if !h.Fits {
			continue
		}
		load := float64(h.AdmittedVCPUs) / float64(h.PCPUs)
		if best < 0 || load < bestLoad {
			best, bestLoad = h.ID, load
		}
	}
	return best
}

// firstFit packs: the lowest-ID host that fits.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }

func (firstFit) Place(vcpus int, hosts []HostLoad) int {
	for _, h := range hosts {
		if h.Fits {
			return h.ID
		}
	}
	return -1
}

// PlacementPolicies lists the built-in policy names in display order.
func PlacementPolicies() []string {
	return []string{"round-robin", "least-loaded", "first-fit"}
}
