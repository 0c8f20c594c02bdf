module davide/bench

go 1.24

require davide v0.0.0

replace davide => ../
