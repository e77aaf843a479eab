package lint

// ListExports is the export-data lookup the fixture tests hand to
// linttest.Run.
var ListExports = listExports
