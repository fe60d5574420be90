//go:build linux

package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that pinGenerator has already re-executed and
// carries the CPU plan: "<generator CPU>:<daemon CPU>,<daemon CPU>...".
const pinnedEnv = "JAVAFLOW_BENCH_CPUS"

// cpuSet is the kernel's cpu_set_t: room for 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int) { s[cpu/64] |= 1 << (cpu % 64) }

// list returns the CPUs of the set in ascending order.
func (s cpuSet) list() []int {
	var out []int
	for i, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, i*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// setAffinity restricts the calling thread (and whatever it forks) to set.
func setAffinity(set cpuSet) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return fmt.Errorf("sched_setaffinity %v: %w", set.list(), errno)
	}
	return nil
}

// cpuPlan says where the load generator and the daemons run.
type cpuPlan struct {
	generator cpuSet
	daemons   cpuSet
}

// planCPUs splits the CPUs the harness is allowed on: the generator gets
// the highest one, the daemons all the others — so the generator's own CPU
// time never comes out of the daemons' throughput, and a daemon's
// GOMAXPROCS (and -workers default) is the number of CPUs left. With a
// single allowed CPU both share it.
func planCPUs(allowed cpuSet) (cpuPlan, error) {
	cpus := allowed.list()
	if len(cpus) == 0 {
		return cpuPlan{}, fmt.Errorf("sched_getaffinity returned an empty CPU mask")
	}
	var p cpuPlan
	p.generator.add(cpus[len(cpus)-1])
	if len(cpus) == 1 {
		p.daemons = p.generator
		return p, nil
	}
	for _, cpu := range cpus[:len(cpus)-1] {
		p.daemons.add(cpu)
	}
	return p, nil
}

func (p cpuPlan) String() string {
	var ds []string
	for _, cpu := range p.daemons.list() {
		ds = append(ds, strconv.Itoa(cpu))
	}
	return strconv.Itoa(p.generator.list()[0]) + ":" + strings.Join(ds, ",")
}

func parsePlan(s string) (cpuPlan, error) {
	var p cpuPlan
	gen, daemons, ok := strings.Cut(s, ":")
	fields := append([]string{gen}, strings.Split(daemons, ",")...)
	for i, f := range fields {
		cpu, err := strconv.Atoi(f)
		if !ok || err != nil || cpu < 0 || cpu >= len(p.generator)*64 {
			return cpuPlan{}, fmt.Errorf("%s=%q: want <generator CPU>:<daemon CPU>,...", pinnedEnv, s)
		}
		if i == 0 {
			p.generator.add(cpu)
		} else {
			p.daemons.add(cpu)
		}
	}
	return p, nil
}

// pinGenerator confines the harness to the plan's generator CPU, then
// re-executes itself so that every runtime thread starts under the new
// mask, and returns the plan in the re-executed process. Daemons are moved
// to their own CPUs when they are forked (startPinned).
//
// Why pin at all: left to the scheduler, generator and daemons migrate
// between the two vCPUs of the boxes this runs on and identical runs were
// up to 26 % apart (README, "Why pinned CPUs").
func pinGenerator() (cpuPlan, error) {
	if s := os.Getenv(pinnedEnv); s != "" {
		return parsePlan(s)
	}
	runtime.LockOSThread() // the mask set below is this thread's; exec keeps it
	var allowed cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return cpuPlan{}, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	plan, err := planCPUs(allowed)
	if err != nil {
		return cpuPlan{}, err
	}
	if err := setAffinity(plan.generator); err != nil {
		return cpuPlan{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return cpuPlan{}, err
	}
	env := append(os.Environ(), pinnedEnv+"="+plan.String())
	return cpuPlan{}, syscall.Exec(exe, os.Args, env)
}

// daemonCPUs is where a workload's daemons run. While a /v1/batch lap
// runs, the generator only waits for its one reply, so the daemon of a
// batch workload gets the generator's CPU as well: its worker pool is as
// wide as the machine.
func (p cpuPlan) daemonCPUs(batch bool) cpuSet {
	set := p.daemons
	if batch {
		for i := range set {
			set[i] |= p.generator[i]
		}
	}
	return set
}

// startOn starts a daemon on the given CPUs: a forked child inherits the
// affinity mask of the thread that forks it, so the calling thread takes
// the daemon's mask for the duration of the fork.
func (p cpuPlan) startOn(cpus cpuSet, start func() error) error {
	if p == (cpuPlan{}) {
		return start() // not pinned: tests run the harness in-process
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(cpus); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(p.generator); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
