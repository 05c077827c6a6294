package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// labels identify the machine and code a result was measured on, so 1-CPU
// and multi-core runs, or two commits, are never pooled by mistake.
type labels struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the tree is a git checkout, else
	// "unknown"; SourceSHA256 always identifies the Go sources measured.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	// MuerpdConfig is http-light's "muerpd config {json}" line.
	MuerpdConfig string `json:"muerpd_config,omitempty"`
}

func collectLabels(opts options, daemonConfig string) labels {
	return labels{
		Workload:     opts.workload,
		Seed:         opts.seed,
		Seconds:      opts.seconds,
		Trace:        opts.trace,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(opts.root),
		SourceSHA256: sourceHash(opts.root),
		MuerpdConfig: daemonConfig,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every go.mod and .go file under root (paths and
// contents, in path order), skipping VCS metadata and the build area.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); n == ".git" || n == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); n == "go.mod" || strings.HasSuffix(n, ".go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		_, _ = io.Copy(h, f)
		_ = f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
