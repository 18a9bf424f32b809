package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of vs, or the mean of the middle two.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of vs (0 < q ≤ 1).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles are the first and third quartiles of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the "exclusive" method).
func quartiles(vs []float64) (q1, q3 float64) {
	d := sortedCopy(vs)
	ld := len(d)
	if ld < 2 {
		return median(d), median(d)
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// per divides, reading 0 when there is nothing to divide by.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// hostFacts tell a slow host window from a regression.
type hostFacts struct {
	Started time.Time  `json:"started"`
	NProc   int        `json:"nproc"`
	Go      string     `json:"go"`
	LoadAvg [3]float64 `json:"loadavg"`
	// CalibMs and CalibEndMs time a fixed integer loop on this host as the
	// run starts and as it ends, so a host that changed speed shows.
	CalibMs    float64 `json:"calib_ms"`
	CalibEndMs float64 `json:"calib_end_ms"`
}

var calibSink uint64

func measureHost() hostFacts {
	h := hostFacts{Started: time.Now().UTC(), NProc: runtime.NumCPU(), Go: runtime.Version(), CalibMs: calibrate()}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		for i, l := range si.Loads {
			h.LoadAvg[i] = float64(l) / 65536
		}
	}
	return h
}

// calibrate is the median time of five runs of a fixed integer loop, in ms.
func calibrate() float64 {
	var times []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 10_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times = append(times, ms(time.Since(start)))
	}
	return median(times)
}

// command prepares a child process that is killed if the benchmark dies
// before it could stop the child itself.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// maxRSSMB is an exited child's peak resident set, from rusage.
func maxRSSMB(st *os.ProcessState) float64 {
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
