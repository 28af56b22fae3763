package torture

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Server is one running gpsa-serve subprocess.
type Server struct {
	*proc
	addr string // host:port the server reported listening on
}

// ServerConfig parameterizes StartServer.
type ServerConfig struct {
	GraphDir string
	JobsDir  string
	Resume   bool     // pass -resume-jobs
	Fault    string   // GPSA_FAULT spec, "" = none
	Extra    []string // additional flags
}

// StartServer builds cmd/gpsa-serve (once per process), launches it on
// an ephemeral port, and waits until it reports its listen address on
// stderr.
func StartServer(cfg ServerConfig) (*Server, error) {
	bin, err := Binary("gpsa-serve")
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-graphs", cfg.GraphDir,
		"-jobs", cfg.JobsDir,
		"-v",
	}
	if cfg.Resume {
		args = append(args, "-resume-jobs")
	}
	p, err := start(bin, append(args, cfg.Extra...), cfg.Fault)
	if err != nil {
		return nil, err
	}
	rest, ok := p.awaitLine("listening on ", 15*time.Second)
	addr := strings.Fields(rest)
	if !ok || len(addr) == 0 {
		p.Kill()
		return nil, fmt.Errorf("torture: server never reported its address; stderr:\n%s", p.Stderr())
	}
	return &Server{proc: p, addr: addr[0]}, nil
}

// Job mirrors the server's job JSON (the fields scenarios assert on).
type Job struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Cached bool   `json:"cached"`
	Values string `json:"values"` // the job's value file
}

// Submit POSTs a job spec and decodes the response.
func (s *Server) Submit(spec map[string]any) (int, Job, http.Header, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, Job{}, nil, err
	}
	resp, err := http.Post("http://"+s.addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, Job{}, nil, err
	}
	defer resp.Body.Close()
	var j Job
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &j) //nolint:errcheck — error bodies aren't jobs
	return resp.StatusCode, j, resp.Header, nil
}

// Jobs fetches every job the server knows.
func (s *Server) Jobs() ([]Job, error) {
	resp, err := http.Get("http://" + s.addr + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// Metrics fetches /metrics as a name -> value map.
func (s *Server) Metrics() (map[string]int64, error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// Status fetches a bare endpoint's HTTP status (healthz/readyz).
func (s *Server) Status(path string) (int, error) {
	resp, err := http.Get("http://" + s.addr + path)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, nil
}

// WaitRunning polls until at least n jobs report status running.
func (s *Server) WaitRunning(t testing.TB, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		jobs, err := s.Jobs()
		if err == nil {
			running := 0
			for _, j := range jobs {
				if j.Status == "running" {
					running++
				}
			}
			if running >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d running jobs; stderr:\n%s", n, s.Stderr())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WaitAllTerminal polls until every listed job is terminal (completed,
// failed or deadline_exceeded), then returns all jobs keyed by ID.
func (s *Server) WaitAllTerminal(t testing.TB, ids []string, timeout time.Duration) map[string]Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		jobs, err := s.Jobs()
		if err == nil {
			byID := make(map[string]Job, len(jobs))
			for _, j := range jobs {
				byID[j.ID] = j
			}
			done := 0
			for _, id := range ids {
				switch byID[id].Status {
				case "completed", "failed", "deadline_exceeded":
					done++
				}
			}
			if done == len(ids) {
				return byID
			}
		}
		if time.Now().After(deadline) {
			jobs, _ := s.Jobs()
			t.Fatalf("jobs never all finished: %+v\nstderr:\n%s", jobs, s.Stderr())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
