// Command leanfix is the lean gate's fixture root: everything it names
// is live, and everything under internal/ that it cannot reach is dead.
package main

import (
	"fmt"

	"leanfix/internal/fix"
)

func main() {
	t := fix.New()
	t.Used()
	fmt.Println(t, fix.Second)
}
