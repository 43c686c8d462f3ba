module ptffedrec/bench

go 1.24

require ptffedrec v0.0.0

replace ptffedrec => ../
