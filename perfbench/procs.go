package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func nprocs() int { return runtime.NumCPU() }

// proc is one server process the benchmark started.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc runs bin with args on a fresh loopback port and waits until
// it answers GET /healthz. GOMAXPROCS is pinned to the CPU count so the
// environment stamp states it exactly.
func startProc(name, bin, logDir string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nprocs()))
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf}
	if err := waitHealthy(p.url, 20*time.Second); err != nil {
		p.stop()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return p, nil
}

func waitHealthy(url string, limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after %v (last error %v)", limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hwmMB is the process's peak resident set (VmHWM) in MiB.
func (p *proc) hwmMB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stop sends SIGTERM, waits for a graceful exit and kills the process if
// it has not exited within ten seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // the exit status of a signalled server carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	p.log.Close()
}

// env is the environment stamp every result records.
type env struct {
	Nproc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	GitCommit  string         `json:"git_commit"`
	GitDirty   *bool          `json:"git_dirty"`
	SourceHash string         `json:"source_sha256"`
	DataDirFS  string         `json:"data_dir_fs"`
	Seed       int64          `json:"seed"`
	Workload   string         `json:"workload"`
	RunSeconds float64        `json:"run_seconds"`
}

func stamp(workDir string, seed int64, w workload, secs float64) env {
	e := env{
		Nproc:      nprocs(),
		GOMAXPROCS: map[string]int{"generator": runtime.GOMAXPROCS(0), "streamkmd": nprocs()},
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		SourceHash: sourceHash("."),
		DataDirFS:  fsType(workDir),
		Seed:       seed,
		Workload:   w.Name,
		RunSeconds: secs,
	}
	if w.Daemons > 1 {
		e.GOMAXPROCS["streamkm-router"] = nprocs()
	}
	e.GitCommit, e.GitDirty = gitState()
	return e
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitState reports HEAD and whether the tree is dirty, when the working
// directory is the top of a git repository; otherwise "none" and a nil
// dirty flag.
func gitState() (string, *bool) {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, _ := os.Getwd()
	if err != nil || strings.TrimSpace(string(top)) != wd {
		return "none", nil
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", nil
	}
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(head)), nil
	}
	dirty := len(strings.TrimSpace(string(st))) > 0
	return strings.TrimSpace(string(head)), &dirty
}

// sourceHash fingerprints the Go sources and module files under root, so
// results from checkouts without git history still name the code they ran.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply not fingerprinted
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType is the filesystem type of the mount holding dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
