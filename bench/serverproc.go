package main

// Building and running the server under test. The server is started
// exactly as an operator would start it: production defaults plus the
// image, an address and -quiet. It receives no benchmark flags.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// buildServer builds cmd/nutriserve from the checkout at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "nutriserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nutriserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/nutriserve: %w", err)
	}
	return bin, nil
}

type serverProc struct {
	addr    string
	cmd     *exec.Cmd
	log     bytes.Buffer // stdout and stderr; read only after exited closes
	exited  chan struct{}
	waitErr error
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// bootServer starts bin on a free loopback port and returns once
// GET /v1/healthz answers 200, with the time from exec to that answer.
func bootServer(bin, img string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	p := &serverProc{addr: addr, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, "-quiet", "-db", img, "-addr", addr)
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := start.Add(60 * time.Second); ; {
		if resp, err := client.Get("http://" + addr + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("nutriserve exited during start-up (%v): %s", p.waitErr, p.log.Bytes())
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, errors.New("nutriserve did not answer /v1/healthz within 60s")
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// stop asks the server to drain and waits for it to exit; a server that
// does not exit within the drain window is killed. It reports a
// non-zero exit as an error.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited, which exited reports
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("nutriserve did not drain within 20s: %s", p.log.Bytes())
	}
	if p.waitErr != nil {
		return fmt.Errorf("nutriserve exited with %v: %s", p.waitErr, p.log.Bytes())
	}
	return nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
