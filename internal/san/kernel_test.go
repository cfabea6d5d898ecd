package san

import (
	"fmt"
	"testing"
)

// runGoldenOnKernel runs one golden cell under the given contract on the
// chosen event list, bypassing NewInstance's width-based pick.
func runGoldenOnKernel(t *testing.T, build func() *Model, horizon float64, seed uint64, contract int, calendar bool) map[string]string {
	t.Helper()
	prog, err := Compile(build(), WithContract(contract))
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.newInstance(calendar)
	if err != nil {
		t.Fatal(err)
	}
	if in.kernel.Calendar() != calendar {
		t.Fatalf("newInstance(%v) built the other kernel", calendar)
	}
	in.Reset(seed)
	return renderGoldenRun(t, in, horizon)
}

// TestGoldenKernelEquivalence runs the golden cells (tandem and M/M/1)
// under both contracts on the binary heap and on the calendar queue: the
// kernel is a performance choice, so the results must be bit-identical,
// and the v2 runs must match the recorded fixture on either kernel.
func TestGoldenKernelEquivalence(t *testing.T) {
	golden := loadGoldenV2(t)
	for _, gc := range goldenV2Cases() {
		for _, contract := range []int{ContractV1, ContractV2} {
			gc, contract := gc, contract
			t.Run(fmt.Sprintf("%s/v%d", gc.name, contract), func(t *testing.T) {
				heap := runGoldenOnKernel(t, gc.build, gc.horizon, gc.seed, contract, false)
				cal := runGoldenOnKernel(t, gc.build, gc.horizon, gc.seed, contract, true)
				if fmt.Sprint(heap) != fmt.Sprint(cal) {
					t.Fatalf("heap and calendar kernels diverged:\nheap     %v\ncalendar %v", heap, cal)
				}
				if contract == ContractV2 {
					compareGoldenV2(t, cal, golden[gc.name])
				}
			})
		}
	}
}

// TestNewInstanceKernelByWidth pins NewInstance's kernel choice: the heap
// below calendarMinTimed timed activities, the calendar queue from there
// on, under either contract.
func TestNewInstanceKernelByWidth(t *testing.T) {
	for _, contract := range []int{ContractV1, ContractV2} {
		// buildTandem(n) has n+1 timed activities (the source plus n servers).
		for _, tc := range []struct {
			stations int
			calendar bool
		}{
			{1, false},
			{calendarMinTimed - 2, false},
			{calendarMinTimed - 1, true},
			{2 * calendarMinTimed, true},
		} {
			prog, err := Compile(buildTandem(tc.stations), WithContract(contract))
			if err != nil {
				t.Fatal(err)
			}
			in, err := prog.NewInstance()
			if err != nil {
				t.Fatal(err)
			}
			if got := in.kernel.Calendar(); got != tc.calendar {
				t.Errorf("v%d, %d timed activities: calendar kernel = %v, want %v",
					contract, len(prog.timed), got, tc.calendar)
			}
		}
	}
}
