package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The fault-schedule DSL scripts network faults at virtual times. One
// directive per line; blank lines and #-comments are ignored:
//
//	at <time> partition <group> [| <group>]...   # groups: comma-separated names
//	at <time> heal
//	at <time> crash <node>
//	at <time> restart <node>
//	at <time> latency <from> <to> <duration>
//	at <time> drop <from> <to> <rate>
//	at <time> deploy <node> <site> <bundle>      # bundle: see DefineBundle
//
// Times and durations use Go syntax ("50ms", "1.5s"). Nodes not named in
// any partition group form their own side, so "partition node-3" isolates
// node-3 from everyone else. Events fire as simulated traffic advances the
// virtual clock past their timestamps — a partition scheduled between two
// messages of a stampede genuinely lands mid-stampede. Actions are pure
// fault-state changes (they never send messages), so they are safe to run
// from inside the event loop — except deploy, which needs replication
// RPCs; its action only records the intent, and StabilizeAll executes it
// at the start of its next round.

// Event is one parsed schedule directive.
type Event struct {
	At   time.Duration
	Op   string
	Args []string
}

// ParseSchedule parses the DSL; it returns the events in file order.
func ParseSchedule(src string) ([]Event, error) {
	var events []Event
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "at" {
			return nil, fmt.Errorf("schedule line %d: want 'at <time> <op> ...', got %q", lineNo+1, line)
		}
		at, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("schedule line %d: bad time %q: %v", lineNo+1, fields[1], err)
		}
		op, args := fields[2], fields[3:]
		switch op {
		case "partition":
			if len(args) == 0 {
				return nil, fmt.Errorf("schedule line %d: partition needs at least one group", lineNo+1)
			}
		case "heal":
			if len(args) != 0 {
				return nil, fmt.Errorf("schedule line %d: heal takes no arguments", lineNo+1)
			}
		case "crash", "restart":
			if len(args) != 1 {
				return nil, fmt.Errorf("schedule line %d: %s takes exactly one node", lineNo+1, op)
			}
		case "latency":
			if len(args) != 3 {
				return nil, fmt.Errorf("schedule line %d: latency takes <from> <to> <duration>", lineNo+1)
			}
			if _, err := time.ParseDuration(args[2]); err != nil {
				return nil, fmt.Errorf("schedule line %d: bad duration %q", lineNo+1, args[2])
			}
		case "drop":
			if len(args) != 3 {
				return nil, fmt.Errorf("schedule line %d: drop takes <from> <to> <rate>", lineNo+1)
			}
			if _, err := strconv.ParseFloat(args[2], 64); err != nil {
				return nil, fmt.Errorf("schedule line %d: bad rate %q", lineNo+1, args[2])
			}
		case "deploy":
			if len(args) != 3 {
				return nil, fmt.Errorf("schedule line %d: deploy takes <node> <site> <bundle>", lineNo+1)
			}
		default:
			return nil, fmt.Errorf("schedule line %d: unknown op %q", lineNo+1, op)
		}
		events = append(events, Event{At: at, Op: op, Args: args})
	}
	return events, nil
}

// apply executes one event's fault action.
func (c *Cluster) apply(ev Event) {
	switch ev.Op {
	case "partition":
		var groups [][]string
		for _, g := range splitGroups(ev.Args) {
			groups = append(groups, g)
		}
		c.Partition(groups...)
	case "heal":
		c.Heal()
	case "crash":
		c.Crash(ev.Args[0])
	case "restart":
		c.Restart(ev.Args[0])
	case "latency":
		d, _ := time.ParseDuration(ev.Args[2])
		c.Sim.SetLatency(ev.Args[0], ev.Args[1], d)
	case "drop":
		rate, _ := strconv.ParseFloat(ev.Args[2], 64)
		c.Sim.SetDropRate(ev.Args[0], ev.Args[1], rate)
	case "deploy":
		// Publishing sends replication RPCs, which is forbidden inside the
		// event loop; record the intent for StabilizeAll to execute.
		c.errMu.Lock()
		c.pendingDeploys = append(c.pendingDeploys, pendingDeploy{node: ev.Args[0], site: ev.Args[1], bundle: ev.Args[2]})
		c.errMu.Unlock()
	}
}

// splitGroups turns ["a,b", "|", "c"] or ["a,b|c"] into [[a b] [c]].
func splitGroups(args []string) [][]string {
	var groups [][]string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur = nil
		}
	}
	for _, arg := range args {
		for _, part := range strings.Split(arg, "|") {
			for _, name := range strings.Split(part, ",") {
				if name = strings.TrimSpace(name); name != "" {
					cur = append(cur, name)
				}
			}
			if strings.Contains(arg, "|") {
				flush()
			}
		}
	}
	flush()
	return groups
}

// Schedule parses src and arms every event on the simulated network's
// virtual clock: each fires when message traffic advances past its time.
func (c *Cluster) Schedule(src string) error {
	events, err := ParseSchedule(src)
	if err != nil {
		return err
	}
	for _, ev := range events {
		ev := ev
		c.Sim.Loop().At(ev.At, func(now time.Duration) { c.apply(ev) })
	}
	return nil
}
