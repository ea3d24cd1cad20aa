// Package heaptest finds the strings a value keeps reachable and where
// their bytes live, for tests that bound what a long-lived structure (a
// trained model, a KB index) pins of the inputs it was built from. Only
// tests import it.
package heaptest

import (
	"reflect"
	"unsafe"
)

// Walk calls visit with every value reachable from v — through pointers
// (each once), interfaces, struct fields, map keys and values, and the
// elements of slices and arrays other than those of numbers and flags —
// and the path that reaches it from path.
func Walk(path string, v reflect.Value, visit func(path string, v reflect.Value)) {
	seen := map[uintptr]bool{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		visit(path, v)
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(path, v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if v.Type().Elem().Kind() <= reflect.Complex128 {
				return // numbers and flags
			}
			for i := 0; i < v.Len(); i++ {
				walk(path+"[]", v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(path+" key", it.Key())
				walk(path+"[]", it.Value())
			}
		}
	}
	walk(path, v)
}

// Strings returns every non-empty string reachable from v.
func Strings(v any) []string {
	var out []string
	Walk("", reflect.ValueOf(v), func(_ string, v reflect.Value) {
		if v.Kind() == reflect.String && v.Len() > 0 {
			out = append(out, v.String())
		}
	})
	return out
}

// PointsInto returns the index of the first of within that shares a byte
// of memory with s, or -1.
func PointsInto(s string, within []string) int {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	for i, w := range within {
		wlo := uintptr(unsafe.Pointer(unsafe.StringData(w)))
		if len(s) > 0 && len(w) > 0 && lo < wlo+uintptr(len(w)) && wlo < lo+uintptr(len(s)) {
			return i
		}
	}
	return -1
}
