package core

import (
	"fmt"
	"strings"

	"vcpusim/internal/faults"
	"vcpusim/internal/san"
	"vcpusim/internal/workload"
)

// MaxVCPUSlots is the number of VCPU slots the composed VCPU-scheduler
// model statically defines (the paper's model defines 16 slots; slots
// without a plugged-in VCPU sub-model stay disabled).
const MaxVCPUSlots = 16

// MaxVMVCPUSlots is the number of VCPU slots a VM's job-scheduler model
// statically defines (eight in the paper's Figure 3).
const MaxVMVCPUSlots = 8

// VMConfig describes one virtual machine sub-model: its VCPU count and
// workload characterization.
type VMConfig struct {
	// Name labels the VM in metrics; empty names default to "VM<i>".
	Name string
	// VCPUs is the number of VCPU sub-models plugged into the VM.
	VCPUs int
	// Workload parameterizes the VM's workload-generator sub-model.
	Workload workload.Spec
}

// SystemConfig describes a complete virtualization system: the physical
// CPUs, the hypervisor timeslice, and the VM sub-models.
type SystemConfig struct {
	// PCPUs is the number of physical CPU cores.
	PCPUs int
	// Timeslice is the default number of ticks a VCPU keeps a PCPU once
	// scheduled (schedulers may choose per-assignment values).
	Timeslice int64
	// VMs are the virtual machine sub-models.
	VMs []VMConfig
	// Faults, when non-nil, is a fault-injection campaign composed into
	// the system model (see internal/faults). Nil means a healthy host;
	// the fault hooks then cost nothing and the model is byte-identical
	// to one built before the faults subsystem existed.
	Faults *faults.Plan
	// Contract is the determinism contract version the SAN program is
	// compiled under (san.ContractV1 or san.ContractV2); 0 selects
	// san.DefaultContract, i.e. the byte-frozen v1 variate stream.
	Contract int
}

// Validate checks the configuration against the framework's constraints:
// at least one PCPU and one VM, every VM with at least one VCPU, and within
// the static slot limits of the composed models. (The paper's §III.A states
// a VM has at most as many VCPUs as physical cores, but its own Figure 8
// evaluates a 2-VCPU VM on one PCPU, so that bound is not enforced.)
func (c SystemConfig) Validate() error {
	if c.PCPUs < 1 {
		return fmt.Errorf("core: need at least one PCPU, got %d", c.PCPUs)
	}
	if c.Timeslice < 1 {
		return fmt.Errorf("core: timeslice must be at least one tick, got %d", c.Timeslice)
	}
	if len(c.VMs) == 0 {
		return fmt.Errorf("core: need at least one VM")
	}
	total := 0
	for i, vm := range c.VMs {
		if vm.VCPUs < 1 {
			return fmt.Errorf("core: VM %d needs at least one VCPU, got %d", i, vm.VCPUs)
		}
		if vm.VCPUs > MaxVMVCPUSlots {
			return fmt.Errorf("core: VM %d has %d VCPUs, above the %d VCPU slots of the VM model", i, vm.VCPUs, MaxVMVCPUSlots)
		}
		if err := vm.Workload.Validate(); err != nil {
			return fmt.Errorf("core: VM %d workload: %w", i, err)
		}
		total += vm.VCPUs
	}
	if total > MaxVCPUSlots {
		return fmt.Errorf("core: %d total VCPUs, above the %d VCPU slots of the VCPU-scheduler model", total, MaxVCPUSlots)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.PCPUs, total); err != nil {
			return fmt.Errorf("core: fault plan: %w", err)
		}
	}
	switch c.Contract {
	case 0, san.ContractV1, san.ContractV2:
	default:
		return fmt.Errorf("core: unknown determinism contract version %d (have v%d and v%d)",
			c.Contract, san.ContractV1, san.ContractV2)
	}
	return nil
}

// TotalVCPUs returns the number of VCPUs across all VMs.
func (c SystemConfig) TotalVCPUs() int {
	total := 0
	for _, vm := range c.VMs {
		total += vm.VCPUs
	}
	return total
}

// VMName returns the display name of VM i.
func (c SystemConfig) VMName(i int) string {
	if i < len(c.VMs) && c.VMs[i].Name != "" {
		return c.VMs[i].Name
	}
	return fmt.Sprintf("VM%d", i+1)
}

// String summarizes the setup in the paper's style, e.g.
// "2VCPU+1VCPU+1VCPU VMs, 4 PCPUs".
func (c SystemConfig) String() string {
	parts := make([]string, len(c.VMs))
	for i, vm := range c.VMs {
		parts[i] = fmt.Sprintf("%dVCPU", vm.VCPUs)
	}
	return fmt.Sprintf("%s VMs, %d PCPUs, timeslice %d", strings.Join(parts, "+"), c.PCPUs, c.Timeslice)
}

// Metric names: every reward variable registered by the builder follows
// these helpers, so harnesses and tests never hard-code strings.

// AvailabilityMetric is the rate reward measuring the fraction of time VCPU
// (vm, sibling) is ACTIVE — the paper's "VCPU Availability" fairness metric.
func AvailabilityMetric(vm, sibling int) string {
	return fmt.Sprintf("avail/vm%d/vcpu%d", vm, sibling)
}

// VCPUUtilizationMetric is the rate reward measuring the fraction of time
// VCPU (vm, sibling) is BUSY — the paper's "VCPU Utilization" metric.
func VCPUUtilizationMetric(vm, sibling int) string {
	return fmt.Sprintf("vutil/vm%d/vcpu%d", vm, sibling)
}

// PCPUUtilizationMetric is the rate reward measuring the fraction of time
// PCPU p is ASSIGNED — the paper's "PCPU Utilization" metric.
func PCPUUtilizationMetric(p int) string {
	return fmt.Sprintf("putil/pcpu%d", p)
}

// JobsMetric is the impulse reward counting workloads dispatched to VM
// vm's VCPUs over the measured interval (a throughput diagnostic).
func JobsMetric(vm int) string {
	return fmt.Sprintf("jobs/vm%d", vm)
}

// UnblocksMetric is the impulse reward counting barrier releases of VM vm
// over the measured interval; combined with BlockedFractionMetric it gives
// the mean barrier duration.
func UnblocksMetric(vm int) string {
	return fmt.Sprintf("unblocks/vm%d", vm)
}

// Aggregate metric names (averages over all units, as plotted in the
// paper's Figures 9 and 10).
const (
	AvailabilityAvgMetric    = "avail/avg"
	VCPUUtilizationAvgMetric = "vutil/avg"
	PCPUUtilizationAvgMetric = "putil/avg"
	BlockedFractionMetric    = "blocked/avg" // extra: mean fraction of VMs barrier-blocked

	// SpinFractionMetric is the mean fraction of VCPUs burning PCPU time
	// on a preempted spinlock (spinlock extension; zero under barriers).
	SpinFractionMetric = "spin/avg"
	// EffectiveUtilizationMetric is the mean fraction of VCPUs BUSY and
	// actually progressing (VCPU utilization minus spin waste).
	EffectiveUtilizationMetric = "work/avg"
)
