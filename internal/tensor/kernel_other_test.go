//go:build !amd64

package tensor

// kernelPaths is the Go twins, the only implementation off amd64.
func kernelPaths() []kernelPath { return []kernelPath{{name: "generic"}} }

func (kernelPath) use() (restore func()) { return func() {} }
