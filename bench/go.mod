module mira/bench

go 1.22

require mira v0.0.0

replace mira => ../
