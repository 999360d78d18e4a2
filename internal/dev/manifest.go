package dev

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// manifestName is the metadata file written next to the disk files.
const manifestName = "device.json"

// Manifest records the geometry and architecture of a file-backed device
// so it can be reopened later.
type Manifest struct {
	// N is the number of data disks.
	N int `json:"n"`
	// Arrangement is the layout spec ("shifted", "traditional",
	// "iterated:K", "general:A,B") of the first mirror array.
	Arrangement string `json:"arrangement"`
	// Arrangement2 is the second mirror array's spec (three-mirror), or
	// empty.
	Arrangement2 string `json:"arrangement2,omitempty"`
	// Parity records whether a parity disk is present.
	Parity bool `json:"parity"`
	// ElementSize and Stripes fix the byte geometry.
	ElementSize int64 `json:"element_size"`
	Stripes     int   `json:"stripes"`
}

// arrangementSpec derives the textual spec of an arrangement for the
// manifest. Only spec-expressible arrangements round-trip; custom Table
// arrangements are rejected.
func arrangementSpec(a layout.Arrangement) (string, error) {
	switch arr := a.(type) {
	case *layout.Traditional:
		return "traditional", nil
	case *layout.Shifted:
		return "shifted", nil
	case *layout.Iterated:
		return fmt.Sprintf("iterated:%d", arr.Iterations()), nil
	case *layout.GeneralShifted:
		ca, cb := arr.Coeffs()
		return fmt.Sprintf("general:%d,%d", ca, cb), nil
	default:
		return "", fmt.Errorf("dev: arrangement %s cannot be serialized", a.Name())
	}
}

// manifestFor captures an architecture into a manifest.
func manifestFor(arch *raid.Mirror, elementSize int64, stripes int) (Manifest, error) {
	mirrors := arch.Mirrors()
	spec1, err := arrangementSpec(mirrors[0])
	if err != nil {
		return Manifest{}, err
	}
	m := Manifest{
		N:           arch.N(),
		Arrangement: spec1,
		Parity:      arch.Parity(),
		ElementSize: elementSize,
		Stripes:     stripes,
	}
	if len(mirrors) == 2 {
		spec2, err := arrangementSpec(mirrors[1])
		if err != nil {
			return Manifest{}, err
		}
		m.Arrangement2 = spec2
	}
	return m, nil
}

// architecture rebuilds the raid.Mirror the manifest describes.
func (m Manifest) architecture() (*raid.Mirror, error) {
	arr1, err := layout.ParseSpec(m.Arrangement, m.N)
	if err != nil {
		return nil, err
	}
	switch {
	case m.Arrangement2 != "":
		if m.Parity {
			return nil, fmt.Errorf("dev: manifest combines three-mirror with parity (unsupported)")
		}
		arr2, err := layout.ParseSpec(m.Arrangement2, m.N)
		if err != nil {
			return nil, err
		}
		return raid.NewThreeMirror(arr1, arr2), nil
	case m.Parity:
		return raid.NewMirrorWithParity(arr1), nil
	default:
		return raid.NewMirror(arr1), nil
	}
}

// CreateOnFiles lays out a fresh file-backed device under dir (created
// if missing): one file per disk of arch, named "<role>-<index>.disk"
// and sized stripes × n × elementSize bytes (an existing file is
// truncated), plus the manifest OpenOnFiles reopens it from. The files
// are the caller's to serve — cluster.NewLocal stripes a volume over
// them — and to close.
func CreateOnFiles(arch *raid.Mirror, elementSize int64, stripes int, dir string) (map[raid.DiskID]*FileStore, error) {
	m, err := manifestFor(arch, elementSize, stripes)
	if err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dev: create %s: %w", dir, err)
	}
	files, err := openDisks(arch, dir, func(path string) (*FileStore, error) {
		return OpenFileStore(path, m.diskSize())
	})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), blob, 0o644); err != nil {
		closeFiles(files)
		return nil, fmt.Errorf("dev: write manifest: %w", err)
	}
	return files, nil
}

// OpenOnFiles reopens a device CreateOnFiles laid out under dir, its
// disks' bytes untouched: the architecture and manifest it records, and
// one file per disk.
func OpenOnFiles(dir string) (*raid.Mirror, Manifest, map[raid.DiskID]*FileStore, error) {
	var m Manifest
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, m, nil, fmt.Errorf("dev: read manifest: %w", err)
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, m, nil, fmt.Errorf("dev: parse manifest: %w", err)
	}
	if m.ElementSize < 1 || m.Stripes < 1 || m.N < 1 {
		return nil, m, nil, fmt.Errorf("dev: manifest has invalid geometry: %+v", m)
	}
	arch, err := m.architecture()
	if err != nil {
		return nil, m, nil, err
	}
	files, err := openDisks(arch, dir, func(path string) (*FileStore, error) {
		fs, err := ReopenFileStore(path)
		if err == nil && fs.Size() != m.diskSize() {
			fs.Close()
			return nil, fmt.Errorf("dev: disk file %s has size %d, manifest wants %d", path, fs.Size(), m.diskSize())
		}
		return fs, err
	})
	if err != nil {
		return nil, m, nil, err
	}
	return arch, m, files, nil
}

// diskSize is the bytes each disk file holds.
func (m Manifest) diskSize() int64 { return int64(m.Stripes) * int64(m.N) * m.ElementSize }

// openDisks opens one file per disk of arch under dir with open, closing
// what it opened if one fails.
func openDisks(arch *raid.Mirror, dir string, open func(path string) (*FileStore, error)) (map[raid.DiskID]*FileStore, error) {
	files := map[raid.DiskID]*FileStore{}
	for _, id := range arch.Disks() {
		fs, err := open(filepath.Join(dir, fmt.Sprintf("%s-%d.disk", id.Role, id.Index)))
		if err != nil {
			closeFiles(files)
			return nil, err
		}
		files[id] = fs
	}
	return files, nil
}

func closeFiles(files map[raid.DiskID]*FileStore) {
	for _, f := range files {
		f.Close()
	}
}
