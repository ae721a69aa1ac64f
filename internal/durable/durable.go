// Package durable owns the two primitives every persisted state file in
// holmes shares: a crash-safe publish (WriteFile) and the versioned,
// checksummed JSON envelope (Format). The fleet snapshot, the api cache
// snapshot, and holmes-serve's warm-start file all go through it.
//
// It is a leaf package on purpose: api imports fleet, so a codec shared
// by both can live in neither (DESIGN.md decision 15).
package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// WriteFile publishes data at path so that readers, and a crash at any
// instant, see either the previous file or the new one whole. The bytes
// go to a fresh temp file beside path (unique per call, so concurrent
// publishes to one path never share a temp file), are fsync'd, renamed
// over path, and the directory is fsync'd to make the rename durable.
// On a failure before the rename the temp file is removed and path is
// untouched.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a rename within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Envelope is a state file's outer structure. Payload stays raw so the
// checksum covers its exact bytes. APIVersion is optional: formats that
// do not pin one leave it empty and the field is omitted on disk.
type Envelope struct {
	Format     string          `json:"format"`
	Version    int             `json:"version"`
	APIVersion string          `json:"api_version,omitempty"`
	Checksum   string          `json:"checksum_fnv64a"`
	Payload    json.RawMessage `json:"payload"`
}

// Checksum is FNV-64a over the payload's compact JSON bytes,
// hex-encoded. Compacting first makes the checksum insensitive to the
// re-indentation the envelope encoder applies to the embedded payload
// (it guards content, not formatting); non-JSON payload bytes are hashed
// as-is and fail the payload decode instead.
func Checksum(payload []byte) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err == nil {
		payload = buf.Bytes()
	}
	h := fnv.New64a()
	_, _ = h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Format identifies one enveloped file type.
type Format struct {
	Name    string
	Version int
	// APIVersion, when set, is pinned in the envelope and must match on
	// open.
	APIVersion string
}

// Seal marshals payload and wraps it in the format's envelope: indented
// JSON with a trailing newline.
func (f Format) Seal(payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot payload: %w", err)
	}
	doc, err := json.MarshalIndent(Envelope{
		Format:     f.Name,
		Version:    f.Version,
		APIVersion: f.APIVersion,
		Checksum:   Checksum(raw),
		Payload:    raw,
	}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("snapshot envelope: %w", err)
	}
	return append(doc, '\n'), nil
}

// Open strictly decodes an envelope and checks its format, version, API
// version, and checksum, returning the payload bytes only when every
// check passes.
func (f Format) Open(data []byte) (json.RawMessage, error) {
	var env Envelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if env.Format != f.Name {
		return nil, fmt.Errorf("snapshot format %q (want %q)", env.Format, f.Name)
	}
	if env.Version != f.Version {
		return nil, fmt.Errorf("snapshot version %d (want %d)", env.Version, f.Version)
	}
	if env.APIVersion != f.APIVersion {
		return nil, fmt.Errorf("snapshot from API %s (this server is %s)", env.APIVersion, f.APIVersion)
	}
	if got := Checksum(env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("snapshot checksum %s does not match payload (%s)", env.Checksum, got)
	}
	return env.Payload, nil
}
