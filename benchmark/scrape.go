package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// promSeries is one scrape of a Prometheus text exposition: sample value by
// series, the series written exactly as exposed (`name` or `name{labels}`).
type promSeries map[string]float64

// parseProm reads the text exposition format: comment and blank lines are
// skipped, every other line is `series value` with an optional trailing
// timestamp. A line that does not parse is an error, not a silent zero.
func parseProm(r io.Reader) (promSeries, error) {
	out := make(promSeries)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the closing brace when there are labels (label
		// values may contain spaces), else at the first space.
		end := strings.IndexByte(line, ' ')
		if b := strings.IndexByte(line, '{'); b >= 0 && (end < 0 || b < end) {
			c := strings.LastIndexByte(line, '}')
			if c < 0 {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			end = c + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// get returns the one sample of family name whose labels include every one
// of want (each written `key="value"`). No match, or more than one, is an
// error naming the family: a counter the server stopped exposing must fail
// the run, not read as zero.
func (p promSeries) get(name string, want ...string) (float64, error) {
	var found []string
	for series := range p {
		family, labels, _ := strings.Cut(series, "{")
		if family != name {
			continue
		}
		ok := true
		for _, w := range want {
			ok = ok && strings.Contains(labels, w)
		}
		if ok {
			found = append(found, series)
		}
	}
	switch len(found) {
	case 1:
		return p[found[0]], nil
	case 0:
		return 0, fmt.Errorf("metrics: no series %s%v exposed", name, want)
	default:
		return 0, fmt.Errorf("metrics: %d series match %s%v", len(found), name, want)
	}
}

// procUsage is what /proc says about one process.
type procUsage struct {
	cpuSeconds float64 // user + system
	rssPeakMB  float64 // VmHWM
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 on every
// architecture Go runs on; sysconf is not reachable without cgo.
const clockTicksPerSecond = 100

// readProc reads cpu time from /proc/<pid>/stat and the resident-set peak
// from /proc/<pid>/status.
func readProc(pid int) (procUsage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	u, err := parseProcStat(string(stat))
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procUsage{}, err
	}
	u.rssPeakMB, err = parseVmHWM(string(status))
	return u, err
}

// parseProcStat takes utime and stime, fields 14 and 15. The command name
// (field 2) may contain spaces and parentheses, so counting starts after
// the last ')'.
func parseProcStat(stat string) (procUsage, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return procUsage{}, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return procUsage{}, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return procUsage{cpuSeconds: (utime + stime) / clockTicksPerSecond}, nil
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("proc status: VmHWM %q", rest)
				}
				return kb / 1024, nil
			}
			return 0, fmt.Errorf("proc status: VmHWM %q", rest)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}
