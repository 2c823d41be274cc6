package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/nn"
)

// Fixtures are built before any timing, from the seed alone: the same
// seed gives byte-identical models, artifacts, request pools and
// datasets. Each one's digest is printed so that two runs can be
// compared without keeping their inputs.

// recordDigest prints and keeps the SHA-256 of one fixture.
func (e *env) recordDigest(name string, b []byte) {
	sum := sha256.Sum256(b)
	d := hex.EncodeToString(sum[:8])
	e.digests = append(e.digests, name+" "+d)
	e.logf("fixture %-22s %8d bytes  sha256:%s", name, len(b), d)
}

// saveNetwork writes net in the nn.Save model format to <work>/<name>.model.
func (e *env) saveNetwork(name string, net *nn.Network) (string, []byte, error) {
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return "", nil, fmt.Errorf("saving %s: %w", name, err)
	}
	path := filepath.Join(e.work, name+".model")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", nil, err
	}
	e.recordDigest(name+".model", buf.Bytes())
	return path, buf.Bytes(), nil
}

// compileArtifact saves net and compiles it with `errpropd -compile`, the
// repository's producer of ahead-of-time artifacts, at fp16. It returns
// the artifact path and the artifact as the benchmark decodes it for its
// in-process reference.
func (e *env) compileArtifact(name string, net *nn.Network) (string, *artifact.Artifact, error) {
	model, _, err := e.saveNetwork(name, net)
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(e.errpropd, "-compile", "-format", "fp16", "-model", name+"="+model, "-out", e.work)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", nil, fmt.Errorf("errpropd -compile %s: %w\n%s", name, err, out)
	}
	path := filepath.Join(e.work, name+".aot")
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	e.recordDigest(name+".aot", raw)
	art, err := artifact.Decode(raw)
	if err != nil {
		return "", nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return path, art, nil
}
