package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process with its captured output.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	logFile *os.File
	// done is closed once the child has exited and been reaped.
	done chan struct{}
}

// children tracks every live child so an interrupt can kill them all.
var children struct {
	sync.Mutex
	live map[*proc]struct{}
}

// spawn starts bin on the given CPU (see affinity.go), in its own process
// group, with stdout and stderr kept in dir/name.log. The child is told to die with this process
// (Pdeathsig), so even a SIGKILLed benchmark leaves nothing running.
// Pdeathsig follows the spawning thread, not the process; startOn hands
// its thread back to the runtime, which keeps it for the process's life.
func spawn(cpu int, dir, name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// A fixed environment: a GOGC or GOMEMLIMIT inherited from the caller
	// changes the node's garbage collection, and with it every figure
	// (GOGC=400 makes large_range three times faster).
	cmd.Env = []string{"GOMAXPROCS=" + strconv.Itoa(loadConnections)}
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := startOn(cpu, cmd.Start); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, logFile: logFile, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no news
		close(p.done)
	}()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*proc]struct{})
	}
	children.live[p] = struct{}{}
	children.Unlock()
	return p, nil
}

// kill SIGKILLs the child's process group and waits until it has ended.
func (p *proc) kill() {
	children.Lock()
	_, live := children.live[p]
	delete(children.live, p)
	children.Unlock()
	if !live {
		return
	}
	// Negative pid: the whole group the child leads.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
	p.logFile.Close()
}

// killAllChildren is the interrupt path.
func killAllChildren() {
	children.Lock()
	var all []*proc
	for p := range children.live {
		all = append(all, p)
	}
	children.Unlock()
	for _, p := range all {
		p.kill()
	}
}

// logTail returns the last n lines the child printed.
func (p *proc) logTail(n int) string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// freePorts reserves n distinct loopback ports and releases them for the
// children to claim.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var listeners []net.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for len(ports) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// readinessPoll is the interval at which set-up polls a child's port; it
// bounds how much scheduler time, rather than work, set-up can contain.
const readinessPoll = 2 * time.Millisecond

// waitListening polls addr until it accepts a connection.
func waitListening(addr string, p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before listening on %s\n%s", p.name, addr, p.logTail(20))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never listened on %s: %v\n%s", p.name, addr, err, p.logTail(20))
		}
		time.Sleep(readinessPoll)
	}
}

// procSample is one reading of a process's /proc counters.
type procSample struct {
	userTicks, sysTicks int64 // utime, stime (clock ticks, all threads)
	hwmKB               int64 // VmHWM: peak resident set
	threads             int64
	ctxSwitches         int64 // voluntary + involuntary, all threads
	wchar               int64 // bytes through write syscalls (sockets included)
	writeCalls          int64 // write syscalls
	diskWriteBytes      int64 // bytes sent to the storage layer
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux port Go supports.
const clockTick = 100

// readCPUTicks reads utime and stime from /proc/<pid>/stat.
func readCPUTicks(pid int) (user, sys int64, err error) {
	path := "/proc/" + strconv.Itoa(pid) + "/stat"
	stat, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12 from there.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short %s", path)
	}
	user, _ = strconv.ParseInt(f[11], 10, 64)
	sys, _ = strconv.ParseInt(f[12], 10, 64)
	return user, sys, nil
}

// readProcs sums the readings of several processes.
func readProcs(pids []int) (procSample, error) {
	var sum procSample
	for _, pid := range pids {
		s, err := readProc(pid)
		if err != nil {
			return sum, fmt.Errorf("read /proc/%d: %w", pid, err)
		}
		sum = sum.add(s)
	}
	return sum, nil
}

// stolenSeconds is the time the hypervisor has so far kept sutCPU and
// loadCPU from running although they had work (the steal column of their
// /proc/stat lines), summed over the two; 0 when nothing is pinned or the
// kernel does not report it.
func stolenSeconds() float64 {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil || sutCPU < 0 {
		return 0
	}
	ticks := int64(0)
	for _, line := range strings.Split(string(stat), "\n") {
		// cpuN user nice system idle iowait irq softirq steal ...
		f := strings.Fields(line)
		if len(f) > 8 && (f[0] == "cpu"+strconv.Itoa(sutCPU) || f[0] == "cpu"+strconv.Itoa(loadCPU)) {
			steal, _ := strconv.ParseInt(f[8], 10, 64)
			ticks += steal
		}
	}
	return float64(ticks) / clockTick
}

// residentMB reads the summed resident set of pids from
// /proc/<pid>/statm, in MB. A process whose entry cannot be read
// contributes nothing.
func residentMB(pids []int) float64 {
	pages := 0.0
	for _, pid := range pids {
		statm, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
		if f := strings.Fields(string(statm)); err == nil && len(f) > 1 {
			resident, _ := strconv.ParseFloat(f[1], 64)
			pages += resident
		}
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func readProc(pid int) (procSample, error) {
	var s procSample
	if pid == 0 {
		return s, nil
	}
	base := "/proc/" + strconv.Itoa(pid)
	var err error
	if s.userTicks, s.sysTicks, err = readCPUTicks(pid); err != nil {
		return s, err
	}

	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return s, err
	}
	s.hwmKB = statusField(string(status), "VmHWM:")
	s.threads = statusField(string(status), "Threads:")

	// Context switches are kept per thread.
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		ts, err := os.ReadFile(base + "/task/" + t.Name() + "/status")
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		s.ctxSwitches += statusField(string(ts), "voluntary_ctxt_switches:") + statusField(string(ts), "nonvoluntary_ctxt_switches:")
	}

	io, err := os.ReadFile(base + "/io")
	if err != nil {
		return s, err
	}
	s.wchar = statusField(string(io), "wchar:")
	s.writeCalls = statusField(string(io), "syscw:")
	s.diskWriteBytes = statusField(string(io), "write_bytes:")
	return s, nil
}

// statusField returns the first integer after key in a /proc text file.
// The key must start a line, so "voluntary_" does not match inside
// "nonvoluntary_".
func statusField(text, key string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		userTicks:      a.userTicks - b.userTicks,
		sysTicks:       a.sysTicks - b.sysTicks,
		hwmKB:          a.hwmKB, // a peak, not a counter
		threads:        a.threads,
		ctxSwitches:    a.ctxSwitches - b.ctxSwitches,
		wchar:          a.wchar - b.wchar,
		writeCalls:     a.writeCalls - b.writeCalls,
		diskWriteBytes: a.diskWriteBytes - b.diskWriteBytes,
	}
}

func (a procSample) add(b procSample) procSample {
	return procSample{
		userTicks:      a.userTicks + b.userTicks,
		sysTicks:       a.sysTicks + b.sysTicks,
		hwmKB:          a.hwmKB + b.hwmKB,
		threads:        a.threads + b.threads,
		ctxSwitches:    a.ctxSwitches + b.ctxSwitches,
		wchar:          a.wchar + b.wchar,
		writeCalls:     a.writeCalls + b.writeCalls,
		diskWriteBytes: a.diskWriteBytes + b.diskWriteBytes,
	}
}

// cpuMicros converts clock ticks to microseconds.
func cpuMicros(ticks int64) float64 { return float64(ticks) * 1e6 / clockTick }
