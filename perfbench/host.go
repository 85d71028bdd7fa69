package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostStamp identifies the machine and the code a result was measured on.
// Timings are only comparable between results whose stamps agree on the
// host fields; commit and source digest say which code was measured.
type hostStamp struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// DaemonGOMAXPROCS is the GOMAXPROCS streamcountd runs with in
	// end-to-end runs (see daemonProcs).
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	NumCPU           int    `json:"num_cpu"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	// Commit is the git HEAD of the checkout, or "none" outside a git
	// repository; SourceSHA256 identifies the Go sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func stampHost() (hostStamp, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return hostStamp{}, fmt.Errorf("hashing sources: %w", err)
	}
	return hostStamp{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: daemonProcs,
		NumCPU:           runtime.NumCPU(),
		CPUModel:         cpuModel(),
		GoVersion:        runtime.Version(),
		Commit:           gitCommit(),
		SourceSHA256:     digest,
	}, nil
}

// differs names the host fields on which two stamps disagree, or returns ""
// when timings taken under both are comparable.
func (h hostStamp) differs(o hostStamp) string {
	var d []string
	if h.GOMAXPROCS != o.GOMAXPROCS {
		d = append(d, fmt.Sprintf("GOMAXPROCS %d vs %d", h.GOMAXPROCS, o.GOMAXPROCS))
	}
	if h.DaemonGOMAXPROCS != o.DaemonGOMAXPROCS {
		d = append(d, fmt.Sprintf("streamcountd GOMAXPROCS %d vs %d", h.DaemonGOMAXPROCS, o.DaemonGOMAXPROCS))
	}
	if h.NumCPU != o.NumCPU {
		d = append(d, fmt.Sprintf("NumCPU %d vs %d", h.NumCPU, o.NumCPU))
	}
	if h.CPUModel != o.CPUModel {
		d = append(d, fmt.Sprintf("CPU %q vs %q", h.CPUModel, o.CPUModel))
	}
	if h.GoVersion != o.GoVersion {
		d = append(d, fmt.Sprintf("Go %s vs %s", h.GoVersion, o.GoVersion))
	}
	return strings.Join(d, ", ")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// hidden directories (build outputs, VCS metadata).
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
