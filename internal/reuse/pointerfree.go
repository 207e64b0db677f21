package reuse

import (
	"fmt"
	"reflect"
)

// PointerFree returns nil when a value of type t holds nothing the
// garbage collector must scan or fence a store to: t is a boolean or
// numeric type, or an array or struct built only of such types
// (DESIGN.md §23). Otherwise it names the first path through t that
// reaches a pointer, slice, map, string, interface, func or chan.
func PointerFree(t reflect.Type) error {
	return pointerFree(t, t.String())
}

func pointerFree(t reflect.Type, path string) error {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if err := pointerFree(f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return fmt.Errorf("%s is a %s", path, t.Kind())
	}
	return nil
}
