"""Names and descriptions of the worked examples, by kind.

``classify.build_catalog_triple`` constructs them; the table lives apart
from that numeric code so that the command line can offer the kinds
without loading numpy.
"""

CATALOG_KINDS = {
    1: ("balanced single atom", "one atom per sign, aligned phases"),
    2: ("skew single atom", "one atom per sign, unequal data and phases"),
    3: ("transform-coupled distinct positions",
        "distinct positions mixed by a Fourier block; irreducible"),
    4: ("repeated position", "one position with multiplicity two; reducible"),
    5: ("two contraction-coupled blocks",
        "two repeated positions coupled by a Jordan-type contraction; "
        "irreducible"),
}
