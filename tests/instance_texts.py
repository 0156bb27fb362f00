"""Small instance files shared by the parser and CLI tests."""

TRIANGLE_TEXT = "3 3\n1 2 3\n1 3 1\n2 3 2\n"
TWO_VERTEX_TEXT = "2 1\n1 2 5\n"
